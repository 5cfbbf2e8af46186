"""Test-only oracles: the slow, direct routes that fast paths are checked against.

The operator words here are this module's own: `ScaleShift`, `Diagonal`,
`LogDiagonal` and `Scalar` primitives strung into a `Word`, applied left to
right, with builders for D^a, log_p D, J_(+-), ell_k and scalars.
`apply_operator` applies a word one primitive at a time to a whole
`WaveletExpansion`, raising `WindowClipError` where a shift would leave the
window; it is the reference for `operators.WeightedShift`, which maps
psi_(n,m,j) to c(n) psi_(n+s,m,j) in one step.

The `*_by_label` functions are the per-basis-vector relation walk of the
four `operators.relation_rows` families, relation by relation in the order
of the rows: every relation is evaluated afresh on each interior basis
vector psi_(n, m, j), with no use of the fact that the operators never read
m or j.  Their sides are expansions built by `apply_operator` from these
words and are subtracted coefficient by coefficient here; the relation
checks evaluate each side as one scalar per scale instead, and report each
relation once per scale.  `by_label` repeats each of those results for
every label of its scale, in the order of this walk, and the two routes
must agree down to the repr of every float residual.

`canonical_by_level` is the fold of a term dict into the canonical
cyclotomic basis one level at a time, from the level it is given: the loop
`exact._canonical` ran before it first lowers the level by the common p-power
of the exponents.  The two must return the same level and terms.

`product_by_terms` and `sum_by_terms` are `Cyc` arithmetic by the general
route: lift both operands to the common level, combine every pair of terms
without reducing them, and hand the result to the normalizing `Cyc`
constructor.  `Cyc` multiplies by a level-0 factor, and adds two level-0
values, without that normalization; the two must agree in terms, term
order, denominator and level.

`ball_reps` lists the rational keys of every cell of a ball, in index
order, for the tests that build or read whole tables, and `translate`
shifts a whole table's argument, x -> f(x - b).

`translation_residual_by_tables` is the translation check of the kernel
form as two whole tables: `translate` and `vladimirov_kernel_apply`, each
keyed by rationals, and a cellwise difference.
`operators.translation_kernel_residual` keeps the cells as indices and
shifts them; the two must agree in keys, key order, exact values and the
repr of every float.

`fourier_by_cell` is the transform and its inverse as one character sum
per output cell, Theta(N^2): the route `functions.fourier` took before the
radix-p pass up the class tree.  On exact tables the two must agree in
keys, key order and the repr of every value.

`residual_by_synthesis` is the round-trip residual of `analyze` as the
command once computed it: rebuild f from its coefficients with
`synthesize`, subtract, and take the inner product.  The command now uses
Parseval, ||f||^2 - sum |c|^2; on exact tables the two must print the same
bytes.

The `closed_form_*` constructors build the scaled and translated wavelets
straight from their printed case tables, independently of
`evaluate_at_rational`, `materialize` and `translate`.  `scale_arg`, `indicator_fn` and
`support_measure` are the small function-space helpers those comparisons
use, and `scaled`, `add` and `subtract` the cellwise table arithmetic of
the sums and differences the tests build.  `verify_lowering`,
`verify_scaling_generator` and `verify_dilatation` check the derivative
and dilatation identities of the Haar wavelets on [0, 1] through jump
sums, and `log_limit_residual_norm` measures how (D^a - 1)/(a ln p) tends
to log_p D.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from padic_wavelets.errors import (
    InvalidInputError,
    PrimeMismatchError,
    UnsupportedCaseError,
    WindowClipError,
)
from padic_wavelets.exact import Cyc, amp_equal, is_half_integral, p_power_amp
from padic_wavelets.functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    add_cells,
    ball_size,
    cell_index,
    character_amp,
    inner_product,
    reduce_rep,
)
from padic_wavelets.haar import (
    HaarIndex,
    RealStepFn,
    haar_step,
    monomial_coefficient,
    step_equal,
    step_monomial_integral,
)
from padic_wavelets.operators import vladimirov_kernel_apply
from padic_wavelets.padic import check_prime, frac_valp
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    enumerate_m_digits,
    m_value,
    synthesize,
    validate_index,
)


@dataclass(frozen=True)
class ScaleShift:
    step: int

    def __post_init__(self):
        if self.step not in (-1, 1):
            raise InvalidInputError("shift step must be +1 or -1")


@dataclass(frozen=True)
class Diagonal:
    alpha: object


@dataclass(frozen=True)
class LogDiagonal:
    pass


@dataclass(frozen=True)
class Scalar:
    factor: object


@dataclass(frozen=True)
class Word:
    """Primitive actions, applied left to right."""

    prims: tuple = ()

    def __matmul__(self, other: "Word") -> "Word":
        """Operator product: (A @ B)(e) = A(B(e))."""
        return Word(other.prims + self.prims)


def scalar_word(c) -> Word:
    return Word((Scalar(c),))


def vladimirov_word(alpha) -> Word:
    return Word((Diagonal(alpha),))


def log_vladimirov_word() -> Word:
    return Word((LogDiagonal(),))


def j_word(step: int) -> Word:
    """J_(+-) = shift after log_p D, so J_s psi_n = (1-n) psi_(n+s)."""
    return Word((LogDiagonal(), ScaleShift(step)))


def ell_word(k: int) -> Word:
    """ell_k = |k| uniform-sign shifts after log_p D; ell_0 = log_p D."""
    step = 1 if k > 0 else -1
    return Word((LogDiagonal(),) + tuple(ScaleShift(step) for _ in range(abs(k))))


def apply_operator(op: Word, e: WaveletExpansion) -> WaveletExpansion:
    p = e.prime
    coeffs = dict(e.coefficients)
    for prim in op.prims:
        new: dict = {}
        for idx, c in coeffs.items():
            if isinstance(prim, ScaleShift):
                target = KozyrevIndex(idx.n + prim.step, idx.m_digits, idx.j)
                if not e.window.contains(target):
                    raise WindowClipError(target)
                new_idx, value = target, c
            elif isinstance(prim, Diagonal):
                new_idx, value = idx, c * p_power_amp(p, prim.alpha * (1 - idx.n))
            elif isinstance(prim, LogDiagonal):
                new_idx, value = idx, c * Fraction(1 - idx.n)
            elif isinstance(prim, Scalar):
                new_idx, value = idx, c * prim.factor
            else:
                raise InvalidInputError(f"unknown primitive {prim!r}")
            if new_idx in new:
                value = new[new_idx] + value
            if not value:
                new.pop(new_idx, None)
            else:
                new[new_idx] = value
        coeffs = new
    return WaveletExpansion(p, e.window, coeffs)


def basis_vector(p: int, window: Window, idx: KozyrevIndex, amp=None) -> WaveletExpansion:
    validate_index(p, idx)
    return WaveletExpansion(p, window, {idx: Cyc.one(p) if amp is None else amp})


def enumerate_indices(p: int, window: Window):
    return [
        KozyrevIndex(n, m, j)
        for n in range(window.n_min, window.n_max + 1)
        for m in enumerate_m_digits(p, window.m_depth)
        for j in range(1, p)
    ]


def _sub(e1: WaveletExpansion, e2: WaveletExpansion) -> WaveletExpansion:
    coeffs = dict(e1.coefficients)
    for idx, c in e2.coefficients.items():
        total = coeffs.get(idx, Cyc.zero(e1.prime)) - c
        if not total:
            coeffs.pop(idx, None)
        else:
            coeffs[idx] = total
    return WaveletExpansion(e1.prime, e1.window, coeffs)


def _max_abs(e: WaveletExpansion) -> float:
    return max((abs(complex(c)) for c in e.coefficients.values()), default=0.0)


class LabelResult(NamedTuple):
    """One relation on one basis vector psi_index."""

    relation: str
    index: KozyrevIndex
    alpha: object
    residual: float
    exact: bool
    scale: float


def _residual(relation, idx, alpha, sides, exact) -> LabelResult:
    """The relation sides[0] = sum of sides[1:] on one basis vector."""
    residual = sides[0]
    for side in sides[1:]:
        residual = _sub(residual, side)
    scale = 1.0 if exact else max(1.0, *map(_max_abs, sides))
    return LabelResult(relation, idx, alpha, _max_abs(residual), exact, scale)


def _commutator(a, b, e, expected=None) -> list:
    sides = [apply_operator(a, apply_operator(b, e)),
             apply_operator(b, apply_operator(a, e))]
    if expected is not None:
        sides.append(apply_operator(expected, e))
    return sides


def _deformed(alpha, step, e) -> list:
    p = e.prime
    plus = p_power_amp(p, step * alpha / Fraction(2))
    minus = p_power_amp(p, -step * alpha / Fraction(2))
    dal, js = vladimirov_word(alpha), j_word(step)
    lhs = apply_operator(dal, apply_operator(js, e))
    rhs = apply_operator(js, apply_operator(dal, e))
    return [WaveletExpansion(p, e.window, {i: c * plus for i, c in lhs.coefficients.items()}),
            WaveletExpansion(p, e.window, {i: c * minus for i, c in rhs.coefficients.items()})]


def _interior_basis(p, window, *ops):
    """Labels from which no prefix of any word leaves the window's scales."""
    lo = hi = 0
    for op in ops:
        total = 0
        for prim in op.prims:
            if isinstance(prim, ScaleShift):
                total += prim.step
                lo, hi = min(lo, total), max(hi, total)
    for n in range(window.n_min - lo, window.n_max - hi + 1):
        for m in enumerate_m_digits(p, window.m_depth):
            for j in range(1, p):
                yield KozyrevIndex(n, m, j)


def by_label(p, window, results) -> list[LabelResult]:
    """Per-scale `operators.RelationResult`s repeated for every label
    (n, m, j) of their scale, label-major within each run of one scale as
    the walk below emits them.  Two relations that meet at one scale from
    consecutive interior ranges would be interleaved here where a scale has
    more than one label, so a comparison with the walk would fail, not
    pass."""
    out = []
    for n, run in itertools.groupby(results, key=lambda r: r.n):
        run = list(run)
        labels = [KozyrevIndex(n, m, j)
                  for m in enumerate_m_digits(p, window.m_depth) for j in range(1, p)]
        assert all(r.labels == len(labels) for r in run)
        out += [LabelResult(r.relation, idx, r.alpha, r.residual, r.exact, r.scale)
                for idx in labels for r in run]
    return out


def sl2_by_label(p, window):
    out = []
    jp, jm, logd = j_word(+1), j_word(-1), log_vladimirov_word()
    plus_minus = scalar_word(Fraction(2)) @ logd
    for idx in _interior_basis(p, window, jp, jm):
        e = basis_vector(p, window, idx)
        out.append(_residual(
            "sl2:[J+,J-]-2logD", idx, None, _commutator(jp, jm, e, plus_minus), True))
    for step, name in ((+1, "sl2:[logD,J+]+J+"), (-1, "sl2:[logD,J-]-J-")):
        js = j_word(step)
        expected = scalar_word(Fraction(-step)) @ js
        for idx in _interior_basis(p, window, js):
            e = basis_vector(p, window, idx)
            out.append(_residual(name, idx, None, _commutator(logd, js, e, expected), True))
    return out


def witt_by_label(p, window, k_range=3):
    out = []
    for a in range(-k_range, k_range + 1):
        for b in range(-k_range, k_range + 1):
            la, lb = ell_word(a), ell_word(b)
            expected = scalar_word(Fraction(a - b)) @ ell_word(a + b)
            for idx in _interior_basis(p, window, la, lb, ell_word(a + b)):
                e = basis_vector(p, window, idx)
                out.append(_residual(
                    f"witt:[l{a},l{b}]", idx, None, _commutator(la, lb, e, expected), True))
    return out


def deformed_by_label(p, window, alphas):
    out = []
    logd = log_vladimirov_word()
    for alpha in alphas:
        dal = vladimirov_word(alpha)
        exact = is_half_integral(alpha)
        exact_deformed = is_half_integral(alpha / Fraction(2))
        for step in (+1, -1):
            js = j_word(step)
            for idx in _interior_basis(p, window, js):
                e = basis_vector(p, window, idx)
                out.append(_residual(
                    f"deformed:s={step:+d}", idx, alpha, _deformed(alpha, step, e),
                    exact_deformed))
            factor = 1 - p_power_amp(p, step * alpha)
            expected = scalar_word(factor) @ dal @ js
            for idx in _interior_basis(p, window, js):
                e = basis_vector(p, window, idx)
                out.append(_residual(
                    f"commutator:[D^a,J{step:+d}]", idx, alpha,
                    _commutator(dal, js, e, expected), exact))
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            out.append(_residual(
                "commutator:[D^a,logD]", idx, alpha, _commutator(dal, logd, e), exact))
    return out


def semigroup_by_label(p, window, alphas):
    out = []
    for a1, a2 in itertools.product(alphas, alphas):
        exact = is_half_integral(a1) and is_half_integral(a2)
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            lhs = apply_operator(vladimirov_word(a1), apply_operator(vladimirov_word(a2), e))
            rhs = apply_operator(vladimirov_word(a1 + a2), e)
            out.append(_residual("semigroup", idx, (a1, a2), [lhs, rhs], exact))
    return out


def canonical_by_level(p: int, level: int, terms: dict):
    """(level, terms) of exponent -> (a, b) pairs in the canonical basis of
    the p^level-th cyclotomic field, zeros dropped, the level lowered while
    no exponent is prime to p."""
    while level:
        modulus = p**level
        block = modulus // p
        top = modulus - block
        out: dict = {}
        for e, (a, b) in terms.items():
            e %= modulus
            if e >= top:
                # zeta^((p-1)*block + r) = -sum_{i<p-1} zeta^(i*block + r)
                for k in range(e - top, top, block):
                    c = out.get(k, (0, 0))
                    out[k] = (c[0] - a, c[1] - b)
            else:
                c = out.get(e, (0, 0))
                out[e] = (c[0] + a, c[1] + b)
        out = {e: c for e, c in out.items() if c[0] or c[1]}
        if not out:
            return 0, {}
        if any(e % p for e in out):
            return level, out
        terms = {e // p: c for e, c in out.items()}
        level -= 1
    a = sum(c[0] for c in terms.values())
    b = sum(c[1] for c in terms.values())
    return 0, ({0: (a, b)} if a or b else {})


def _lifted_terms(x: Cyc, level: int):
    shift = x.prime ** (level - x.level)
    return [(e * shift, c) for e, c in x.terms.items()]


def product_by_terms(x: Cyc, y: Cyc) -> Cyc:
    """x * y: every term of x times every term of y, in that order, at the
    common level, then one normalization."""
    p, level = x.prime, max(x.level, y.level)
    modulus = p**level
    terms: dict = {}
    for e1, (a, b) in _lifted_terms(x, level):
        for e2, (c, d) in _lifted_terms(y, level):
            e = (e1 + e2) % modulus
            old = terms.get(e, (0, 0))
            terms[e] = (old[0] + a * c + p * b * d, old[1] + a * d + b * c)
    return Cyc(p, level, terms, x.den * y.den)


def sum_by_terms(x: Cyc, y: Cyc, sign: int = 1) -> Cyc:
    """x + sign * y: both over their least common denominator at the common
    level, x's terms first, then one normalization."""
    level, den = max(x.level, y.level), lcm(x.den, y.den)
    terms: dict = {}
    for v, s in ((x, den // x.den), (y, sign * (den // y.den))):
        for e, (a, b) in _lifted_terms(v, level):
            old = terms.get(e, (0, 0))
            terms[e] = (old[0] + s * a, old[1] + s * b)
    return Cyc(x.prime, level, terms, den)


def sum_in_order(p: int, values):
    """The sum of `values` in their order: exact values by `sum_by_terms`
    up to the first float, and from there each value added in complex to
    the complex of the sum so far."""
    total = Cyc.zero(p)
    for v in values:
        if isinstance(total, Cyc) and isinstance(v, Cyc):
            total = sum_by_terms(total, v)
        else:
            total = complex(total) + complex(v)
    return total


def ball_reps(p: int, support_exponent: int, resolution: int,
              cap: int = DEFAULT_CELL_CAP) -> list[Fraction]:
    """Canonical representatives of the p^(M+K) cells covering |x| <= p^M,
    in index order."""
    count = ball_size(p, support_exponent, resolution, cap)
    unit = Fraction(p) ** (-support_exponent)
    return [i * unit for i in range(count)]


def translate(f: LocallyConstantFn, shift) -> LocallyConstantFn:
    """x -> f(x - b) for the rational b = `shift`."""
    p = f.prime
    b = Fraction(shift)
    if b == 0:
        return f
    support = max(f.support_exponent, -frac_valp(b, p))
    table = {reduce_rep(r + b, p, f.resolution): v for r, v in f.table.items()}
    return LocallyConstantFn(p, support, f.resolution, table)


def translation_residual_by_tables(alpha, f: LocallyConstantFn, shift) -> dict:
    """D^alpha(translate f) - translate(D^alpha f) from whole tables: f on
    the ball widened to hold the shift, `translate` before and after
    `vladimirov_kernel_apply`, and the two tables subtracted cell by cell,
    zero cells dropped."""
    b = Fraction(shift)
    support = f.support_exponent
    if b != 0:
        support = max(support, -frac_valp(b, f.prime))
    base = f.with_support(support)
    lhs = vladimirov_kernel_apply(alpha, translate(base, b)).table
    rhs = translate(vladimirov_kernel_apply(alpha, base), b).table
    diff = ((r, lhs.get(r, 0) - rhs.get(r, 0)) for r in {**lhs, **rhs})
    return {r: v for r, v in diff if v}


def fourier_by_cell(f: LocallyConstantFn, cap: int = DEFAULT_CELL_CAP) -> dict:
    """{-1: `fourier`(f), +1: `inverse_fourier`(f)}, one output cell at a
    time.

    For w = iw*p^(-K) and r = ir*p^(-M) the phase of chi(w*r) is
    (sign*iw*ir mod N) / N over the N = p^(M+K) cells, so the inverse at iw
    is the forward sum at -iw mod N, and each sum is taken once.  Exact
    values are lifted once to integers over a common cyclotomic level and
    denominator, rational and sqrt(p) parts apart; a float value is one
    rational term at exponent 0.  Each output cell sums its terms by phase,
    then normalizes once (exact) or weights each phase by its root of
    unity (float).
    """
    p = f.prime
    out_reps = ball_reps(p, f.resolution, f.support_exponent, cap)
    count = len(out_reps)
    cells = [(cell_index(r, p, f.support_exponent), f.table[r]) for r in sorted(f.table)]
    exact = f.is_exact()
    if exact:
        level = max([f.support_exponent + f.resolution] + [v.level for _, v in cells])
        den = lcm(*(v.den for _, v in cells))
        lifted = []
        for ir, v in cells:
            lift = p ** (level - v.level)
            up = den // v.den
            lifted.append((
                ir,
                [(e * lift, a * up) for e, (a, _) in v.terms.items() if a],
                [(e * lift, b * up) for e, (_, b) in v.terms.items() if b],
            ))
        scale = Fraction(p) ** (-f.resolution) / den
        num = scale.numerator
    else:
        level = f.support_exponent + f.resolution
        lifted = [(ir, [(0, complex(v))], []) for ir, v in cells]
        roots = [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]
        scale = float(p) ** (-f.resolution)
    modulus = p**level
    lift_root = modulus // count
    totals = []
    for iw in range(count):
        acc_a, acc_b = {}, {}
        get_a, get_b = acc_a.get, acc_b.get
        for ir, terms_a, terms_b in lifted:
            shift = (-iw * ir % count) * lift_root
            for e, c in terms_a:
                e += shift
                if e >= modulus:
                    e -= modulus
                acc_a[e] = get_a(e, 0) + c
            for e, c in terms_b:
                e += shift
                if e >= modulus:
                    e -= modulus
                acc_b[e] = get_b(e, 0) + c
        if exact:
            phases = set(acc_a.keys())
            phases.update(acc_b.keys())
            terms = {e: (get_a(e, 0) * num, get_b(e, 0) * num)
                     for e in phases if get_a(e) or get_b(e)}
            totals.append(Cyc(p, level, terms, scale.denominator))
        else:
            totals.append(sum(roots[e] * c for e, c in acc_a.items()) * scale)
    tables = {}
    for sign in (-1, 1):
        out = {}
        for iw, w in enumerate(out_reps):
            total = totals[-sign * iw % count]
            if total:
                out[w] = total
        tables[sign] = LocallyConstantFn(p, f.resolution, f.support_exponent, out)
    return tables


def residual_by_synthesis(f: LocallyConstantFn, expansion: WaveletExpansion,
                          cap: int = DEFAULT_CELL_CAP):
    """||f - g||^2 for g the expansion synthesized at the finer of f's
    resolution and the window's finest, 1 - n_min.  Its cost grows with
    p^(S + 1 - n_min), S the support of the rebuilt table, not with f."""
    resolution = max(f.resolution, 1 - expansion.window.n_min)
    rebuilt = synthesize(expansion, resolution=resolution, cap=cap)
    residual = subtract(f, rebuilt)
    return inner_product(residual, residual)


# -- closed-form piecewise constructions ------------------------------------
#
# These build the scaled/translated wavelets directly from their case tables
# (which sphere, which digit conditions, which root of unity) and are used as
# independent cross-checks against evaluate/materialize + translate/scale_arg.


def closed_form_scaled(p: int, n: int, j: int = 1) -> LocallyConstantFn:
    """The n-scaled mother wavelet, built from its piecewise display:
    p^(-n/2) on |x| < p^n and p^(-n/2) * w_p^(j x0) on the sphere |x| = p^n
    (x0 the leading digit).  The two cases overlap as usually printed; the
    inner one is taken strict, matching the defining formula."""
    check_prime(p)
    if not 1 <= j <= p - 1:
        raise InvalidInputError("j outside [1, p-1]")
    mag = Cyc.half_power(p, -n)
    unit = Fraction(p) ** (-n)
    table = {Fraction(0): mag}
    for c in range(1, p):
        table[c * unit] = mag * character_amp(p, Fraction(j * c, p))
    return LocallyConstantFn(p, n, 1 - n, table)


def closed_form_label_translated(p: int, n: int, m_digits, j: int = 1) -> LocallyConstantFn:
    """The wavelet with label (n, m, j), m != 0, built from its case table.

    Support is the subset of the sphere |x| = p^(n+k) whose leading digits
    reproduce m; on the sub-cell whose first free digit is d the value is
    p^(-n/2) * e(j*(m+d)/p).  For depth-1 m this is the familiar display
    w_{p^2}^(j m0) * w_p^(j x1) with x0 = m0 forced.
    """
    idx = validate_index(p, KozyrevIndex(n, tuple(m_digits), j))
    if not idx.m_digits:
        raise UnsupportedCaseError("label translation by 0: use closed_form_scaled")
    mhat = m_value(idx, p)
    scale = Fraction(p) ** (-n)
    mag = Cyc.half_power(p, -n)
    table = {}
    for d in range(p):
        rep = (mhat + d) * scale
        table[rep] = mag * character_amp(p, Fraction(j) * (mhat + d) / p)
    return LocallyConstantFn(p, n + idx.m_depth, 1 - n, table)


def closed_form_scaled_translated(p: int, n: int, m0: int, j: int = 1,
                                  int_digits: tuple = ()) -> LocallyConstantFn:
    """The n-scaled wavelet translated in its argument by b = m0/p + (integer
    digits), built from the case tables.

    n = 1: w_p^(-j m0) * p^(-1/2) on |x| <= 1, p^(-1/2) * w_p^(j(x0-m0)) on
    the sphere |x| = p; i.e. the scaled wavelet times the global phase
    w_p^(-j m0).

    n >= 2: identical to the scaled wavelet.  The translation phase is
    chi(-j * m0 * p^(n-2)) = 1, so no case picks up a phase; a printed
    version of this table that keeps w_p^(-j m0) on the inner region is
    inconsistent with its own sphere case and with direct evaluation.

    n < 0: supported on the sphere |x| = p where the digits x_0..x_{|n|}
    match b; the value is p^(|n|/2), twisted by w_p^(j(x_{|n|+1}-b_{|n|+1}))
    when the first digit past the matching window differs.
    """
    check_prime(p)
    if not 1 <= j <= p - 1:
        raise InvalidInputError("j outside [1, p-1]")
    if not 1 <= m0 <= p - 1:
        raise UnsupportedCaseError("translation must have a nonzero depth-1 digit")
    if n == 0:
        raise UnsupportedCaseError(
            "n = 0 argument translation is not in the case table; "
            "use closed_form_label_translated for the label-translated wavelet"
        )
    if n >= 1:
        wavelet = closed_form_scaled(p, n, j)
        if n >= 2:
            return wavelet
        # n = 1: global phase w_p^(-j m0) on every case
        phase = character_amp(p, Fraction(-j * m0, p))
        table = {rep: v * phase for rep, v in wavelet.table.items()}
        return LocallyConstantFn(p, wavelet.support_exponent, wavelet.resolution, table)

    # n < 0: need the integer digits of b up to exponent |n|
    size = -n + 1
    b_int = tuple(int_digits) + (0,) * max(0, size - len(int_digits))
    if any(not 0 <= d < p for d in b_int):
        raise InvalidInputError("integer digits of the translation out of range")
    mag = Cyc.half_power(p, -n)
    resolution = 1 - n
    table = {}
    match = (m0,) + b_int[: -n]  # digits at exponents -1 .. |n|-1
    for d in range(p):
        digits = match + (d,)
        rep = sum(Fraction(di) * Fraction(p) ** (e - 1) for e, di in enumerate(digits))
        delta = (d - b_int[-n]) % p
        v = mag if delta == 0 else mag * character_amp(p, Fraction(j * delta, p))
        table[reduce_rep(rep, p, resolution)] = v
    return LocallyConstantFn(p, 1, resolution, table)


# -- function-space helpers ---------------------------------------------------


def scaled(f: LocallyConstantFn, factor) -> LocallyConstantFn:
    """f times `factor` cell by cell; an int factor enters as a `Fraction`."""
    if isinstance(factor, int):
        factor = Fraction(factor)
    return LocallyConstantFn(f.prime, f.support_exponent, f.resolution,
                             {r: v * factor for r, v in f.table.items()})


def add(f: LocallyConstantFn, g: LocallyConstantFn) -> LocallyConstantFn:
    """f + g on the larger ball at the finer resolution, g's cells added
    into f's in g's order; a cell whose sum is zero is dropped."""
    if f.prime != g.prime:
        raise PrimeMismatchError("functions over different primes")
    res = max(f.resolution, g.resolution)
    table = dict(f.refine_to(res).table)
    add_cells(table, g.refine_to(res).table.items())
    return LocallyConstantFn(f.prime, max(f.support_exponent, g.support_exponent), res, table)


def subtract(f: LocallyConstantFn, g: LocallyConstantFn) -> LocallyConstantFn:
    """f + (-1) g, through `add` and `scaled`."""
    return add(f, scaled(g, -1))


def indicator_fn(p: int, ball_exponent: int = 0) -> LocallyConstantFn:
    """Indicator of the ball |x|_p <= p^ball_exponent (one cell of that size)."""
    return LocallyConstantFn(
        p, ball_exponent, -ball_exponent, {Fraction(0): Cyc.one(p)}
    )


def scale_arg(f: LocallyConstantFn, e: int) -> LocallyConstantFn:
    """x -> f(p^e x); the support ball grows to p^(M+e), resolution drops to K-e."""
    p = f.prime
    unit = Fraction(p) ** (-e)
    table = {r * unit: v for r, v in f.table.items()}
    return LocallyConstantFn(p, f.support_exponent + e, f.resolution - e, table)


def support_measure(f: LocallyConstantFn) -> Fraction:
    """Total Haar measure of the cells carrying a nonzero value."""
    count = sum(1 for v in f.table.values() if v)
    return count * Fraction(f.prime) ** (-f.resolution)


# -- Haar identities through jump sums ----------------------------------------


def jumps(f: RealStepFn):
    """(x, jump) at every breakpoint, counting the function as 0 outside."""
    out = [(f.breakpoints[0], f.values[0])]
    for i in range(1, len(f.values)):
        out.append((f.breakpoints[i], f.values[i] - f.values[i - 1]))
    out.append((f.breakpoints[-1], -f.values[-1] + Fraction(0)))
    return out


def dilate_arg(f: RealStepFn, p: int, alpha: int) -> RealStepFn:
    """x -> f(p^(-alpha) x) restricted to [0, 1]; alpha >= 0 stretches supports.

    Breakpoints scale by p^alpha and the picture is clipped at 1, so this is
    exact whenever the stretched support fits the unit interval.
    """
    if alpha < 0:
        raise InvalidInputError("dilate_arg implemented for alpha >= 0")
    factor = Fraction(p) ** alpha
    bps = [Fraction(0)]
    vals: list = []
    for i, v in enumerate(f.values):
        a_scaled = f.breakpoints[i] * factor
        b_scaled = f.breakpoints[i + 1] * factor
        if a_scaled >= 1:
            break
        bps.append(min(b_scaled, Fraction(1)))
        vals.append(v)
        if b_scaled >= 1:
            break
    if bps[-1] < 1:
        bps.append(Fraction(1))
        vals.append(Cyc.zero(p))
    return RealStepFn(tuple(bps), tuple(vals))


def _jump_moment(psi: RealStepFn, k: int):
    """int Psi (x^k)' dx through the jumps of Psi, boundary terms set to zero."""
    return -sum(jump * Fraction(x**k) for x, jump in jumps(psi))


def verify_lowering(p: int, degree: int, idx: HaarIndex):
    """Residual of the integration-by-parts identity

        int Psi (x^degree)' dx = degree * int Psi x^(degree-1) dx,

    the left side evaluated through the jump form of dPsi/dx with boundary
    terms at 0 and 1 set to zero.  Exactly zero in rational arithmetic."""
    if degree < 1:
        raise InvalidInputError("degree must be >= 1")
    psi = haar_step(p, idx)
    return _jump_moment(psi, degree) - degree * step_monomial_integral(psi, degree - 1)


def verify_scaling_generator(p: int, degree: int, idx: HaarIndex):
    """Residual of the x d/dx eigenvalue statement on x^degree,

        int Psi x (x^degree)' dx = degree * int Psi x^degree dx,

    with the left side through jump terms (zero-boundary convention)."""
    if degree < 1:
        raise InvalidInputError("degree must be >= 1")
    psi = haar_step(p, idx)
    return _jump_moment(psi, degree + 1) - (degree + 1) * step_monomial_integral(psi, degree)


@dataclass
class DilatationReport:
    degree: int
    alpha: int
    max_level: int
    coefficient_checks: int
    step_identity_checks: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_dilatation(p: int, degree: int, alpha: int, max_level: int = 3,
                      convention: str = "orthonormal") -> DilatationReport:
    """Check the coefficient shift-and-scale of dilation by p^(-alpha).

    Substituting x -> p^(-alpha) x shifts every wavelet level down by alpha
    and multiplies it by p^(alpha/2), so the coefficients of x^degree obey

        p^(alpha (1-n)) c(L, t) = p^(alpha/2) c(L+alpha, t),  n = degree+1,

    exactly; alongside, the step-function identity
    Psi_{L,t}(p^(-alpha) x) = p^(alpha/2) Psi_{L-alpha,t}(x) is checked
    cellwise for every wavelet whose stretched support fits in [0, 1]."""
    if alpha < 1:
        raise InvalidInputError("alpha must be a positive integer")
    n = degree + 1
    failures = []
    coeff_checks = 0
    eigen = Cyc.half_power(p, 2 * alpha * (1 - n))
    half = Cyc.half_power(p, alpha)
    for level in range(0, max_level - alpha + 1):
        for t in range(p**level):
            lo = HaarIndex(level, t, convention)
            hi = HaarIndex(level + alpha, t, convention)
            lhs = eigen * monomial_coefficient(p, degree, lo)
            rhs = half * monomial_coefficient(p, degree, hi)
            coeff_checks += 1
            if not amp_equal(lhs, rhs):
                failures.append(("coefficient", level, t))
    step_checks = 0
    for level in range(alpha, max_level + 1):
        for t in range(p ** (level - alpha)):
            stretched = dilate_arg(haar_step(p, HaarIndex(level, t, convention)), p, alpha)
            target = haar_step(p, HaarIndex(level - alpha, t, convention)).scaled(half)
            step_checks += 1
            if not step_equal(stretched, target):
                failures.append(("step", level, t))
    return DilatationReport(degree, alpha, max_level, coeff_checks, step_checks, failures)


def log_limit_residual_norm(e: WaveletExpansion, alpha: float) -> float:
    """L2 size of ((D^alpha - 1)/(alpha ln p) - log_p D) applied to e."""
    p = e.prime
    lnp = math.log(p)
    total = 0.0
    for idx, c in e.coefficients.items():
        mult = (float(p) ** (alpha * (1 - idx.n)) - 1.0) / (alpha * lnp) - (1 - idx.n)
        total += abs(complex(c) * mult) ** 2
    return math.sqrt(total)
