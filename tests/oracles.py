"""Test-only oracles: the slow, direct routes that fast paths are checked against.

The `*_by_label` functions are the per-basis-vector relation walk of the
five `operators.*_results` families: every relation is evaluated afresh on
each interior basis vector psi_(n, m, j), with no use of the fact that the
operators never read m or j.  Their sides are expansions built by
`operators.apply_operator`, which applies a word one primitive at a time,
and are subtracted coefficient by coefficient here; the relation checks
compile each word into a scalar per scale instead, so the oracles share
only `RelationResult`, the words and `apply_operator` with the code they
check, and the two routes must agree down to the repr of every float
residual.

`canonical_by_level` is the fold of a term dict into the canonical
cyclotomic basis one level at a time, from the level it is given: the loop
`exact._canonical` ran before it first lowers the level by the common p-power
of the exponents.  The two must return the same level and terms.

`fourier_by_cell` is the transform as one character sum per output cell,
Theta(N^2): the route `functions.fourier` took before the radix-p pass up
the class tree.  On exact tables the two must agree in keys, key order and
the repr of every value.

`residual_by_synthesis` is the round-trip residual of `analyze` as the
command once computed it: rebuild f from its coefficients with
`synthesize`, subtract, and take the inner product.  The command now uses
Parseval, ||f||^2 - sum |c|^2; on exact tables the two must print the same
bytes.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

from padic_wavelets.errors import WindowClipError
from padic_wavelets.exact import Cyc, amp_is_zero, is_half_integral, p_power_amp
from padic_wavelets.functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    ball_reps,
    cell_index,
    inner_product,
)
from padic_wavelets.operators import (
    RelationResult,
    ScaleShift,
    apply_operator,
    ell_op,
    j_op,
    log_vladimirov_op,
    scalar_op,
    vladimirov,
)
from padic_wavelets.padic import shift_rational
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    basis_vector,
    enumerate_m_digits,
    label_translate,
    synthesize,
)


def _sub(e1: WaveletExpansion, e2: WaveletExpansion) -> WaveletExpansion:
    coeffs = dict(e1.coefficients)
    for idx, c in e2.coefficients.items():
        total = coeffs.get(idx, Cyc.zero(e1.prime)) - c
        if amp_is_zero(total):
            coeffs.pop(idx, None)
        else:
            coeffs[idx] = total
    return WaveletExpansion(e1.prime, e1.window, coeffs)


def _max_abs(e: WaveletExpansion) -> float:
    return max((abs(complex(c)) for c in e.coefficients.values()), default=0.0)


def _residual(relation, idx, alpha, sides, exact) -> RelationResult:
    """The relation sides[0] = sum of sides[1:] on one basis vector."""
    residual = sides[0]
    for side in sides[1:]:
        residual = _sub(residual, side)
    scale = 1.0 if exact else max(1.0, *map(_max_abs, sides))
    return RelationResult(relation, idx, alpha, _max_abs(residual), exact, scale)


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
    dal, js = vladimirov(alpha), j_op(step)
    lhs = apply_operator(dal, apply_operator(js, e))
    rhs = apply_operator(js, apply_operator(dal, e))
    return [WaveletExpansion(p, e.window, {i: c * plus for i, c in lhs.coefficients.items()}),
            WaveletExpansion(p, e.window, {i: c * minus for i, c in rhs.coefficients.items()})]


def _translate(e: WaveletExpansion, b) -> WaveletExpansion:
    p = e.prime
    coeffs = {}
    for idx, c in e.coefficients.items():
        target = label_translate(idx, b, p)
        if not e.window.contains(target):
            raise WindowClipError(target)
        coeffs[target] = coeffs.get(target, Cyc.zero(p)) + c
    return WaveletExpansion(p, e.window, coeffs)


def _interior_basis(p, window, *ops):
    """Labels from which no prefix of any word leaves the window's scales."""
    lo = hi = 0
    for op in ops:
        total = 0
        for prim in op.word:
            if isinstance(prim, ScaleShift):
                total += prim.step
                lo, hi = min(lo, total), max(hi, total)
    for n in range(window.n_min - lo, window.n_max - hi + 1):
        for m in enumerate_m_digits(p, window.m_depth):
            for j in range(1, p):
                yield KozyrevIndex(n, m, j)


def sl2_by_label(p, window):
    out = []
    jp, jm, logd = j_op(+1), j_op(-1), log_vladimirov_op()
    plus_minus = scalar_op(Fraction(2)) @ logd
    for idx in _interior_basis(p, window, jp, jm):
        e = basis_vector(p, window, idx)
        out.append(_residual(
            "sl2:[J+,J-]-2logD", idx, None, _commutator(jp, jm, e, plus_minus), True))
    for step, name in ((+1, "sl2:[logD,J+]+J+"), (-1, "sl2:[logD,J-]-J-")):
        js = j_op(step)
        expected = scalar_op(Fraction(-step)) @ js
        for idx in _interior_basis(p, window, js):
            e = basis_vector(p, window, idx)
            out.append(_residual(name, idx, None, _commutator(logd, js, e, expected), True))
    return out


def witt_by_label(p, window, k_range=3):
    out = []
    for a in range(-k_range, k_range + 1):
        for b in range(-k_range, k_range + 1):
            la, lb = ell_op(a), ell_op(b)
            expected = scalar_op(Fraction(a - b)) @ ell_op(a + b)
            for idx in _interior_basis(p, window, la, lb, ell_op(a + b)):
                e = basis_vector(p, window, idx)
                out.append(_residual(
                    f"witt:[l{a},l{b}]", idx, None, _commutator(la, lb, e, expected), True))
    return out


def deformed_by_label(p, window, alphas):
    out = []
    logd = log_vladimirov_op()
    for alpha in alphas:
        dal = vladimirov(alpha)
        exact = is_half_integral(alpha)
        exact_deformed = is_half_integral(alpha / Fraction(2))
        for step in (+1, -1):
            js = j_op(step)
            for idx in _interior_basis(p, window, js):
                e = basis_vector(p, window, idx)
                out.append(_residual(
                    f"deformed:s={step:+d}", idx, alpha, _deformed(alpha, step, e),
                    exact_deformed))
                factor = 1 - p_power_amp(p, step * alpha)
                expected = scalar_op(factor) @ dal @ js
                out.append(_residual(
                    f"commutator:[D^a,J{step:+d}]", idx, alpha,
                    _commutator(dal, js, e, expected), exact))
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            out.append(_residual(
                "commutator:[D^a,logD]", idx, alpha, _commutator(dal, logd, e), exact))
    return out


def semigroup_by_label(p, window, alpha_pairs):
    out = []
    for a1, a2 in alpha_pairs:
        exact = is_half_integral(a1) and is_half_integral(a2)
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            lhs = apply_operator(vladimirov(a1), apply_operator(vladimirov(a2), e))
            rhs = apply_operator(vladimirov(a1 + a2), e)
            out.append(_residual("semigroup", idx, (a1, a2), [lhs, rhs], exact))
    return out


def translation_spectral_by_label(p, window, shift, alphas):
    out = []
    b = shift_rational(shift, p)
    for alpha in alphas:
        exact = is_half_integral(alpha)
        dal = vladimirov(alpha)
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            try:
                lhs = apply_operator(dal, _translate(e, b))
                rhs = _translate(apply_operator(dal, e), b)
            except WindowClipError:
                continue
            out.append(_residual("translation:spectral", idx, alpha, [lhs, rhs], exact))
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


def fourier_by_cell(f: LocallyConstantFn, sign: int, cap: int = DEFAULT_CELL_CAP):
    """`fourier` (sign -1) or `inverse_fourier` (sign +1), one output cell at
    a time.

    For w = iw*p^(-K) and r = ir*p^(-M) the phase of chi(w*r) is
    (iw*ir mod N) / N over the N = p^(M+K) cells.  Exact values are lifted
    once to integers over a common cyclotomic level and denominator,
    rational and sqrt(p) parts apart; a float value is one rational term at
    exponent 0.  Each output cell sums its terms by phase, then normalizes
    once (exact) or weights each phase by its root of unity (float).
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
    else:
        level = f.support_exponent + f.resolution
        lifted = [(ir, [(0, complex(v))], []) for ir, v in cells]
        roots = [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]
        scale = float(p) ** (-f.resolution)
    modulus = p**level
    lift_root = modulus // count
    out = {}
    for iw, w in enumerate(out_reps):
        acc_a, acc_b = {}, {}
        get_a, get_b = acc_a.get, acc_b.get
        for ir, terms_a, terms_b in lifted:
            shift = (sign * iw * ir % count) * lift_root
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
            num = scale.numerator
            terms = {e: (get_a(e, 0) * num, get_b(e, 0) * num)
                     for e in phases if get_a(e) or get_b(e)}
            total = Cyc(p, level, terms, scale.denominator)
        else:
            total = sum(roots[e] * c for e, c in acc_a.items()) * scale
        if not amp_is_zero(total):
            out[w] = total
    return LocallyConstantFn(p, f.resolution, f.support_exponent, out)


def residual_by_synthesis(f: LocallyConstantFn, expansion: WaveletExpansion,
                          cap: int = DEFAULT_CELL_CAP):
    """||f - g||^2 for g the expansion synthesized at the finer of f's
    resolution and the window's finest, 1 - n_min.  Its cost grows with
    p^(S + 1 - n_min), S the support of the rebuilt table, not with f."""
    resolution = max(f.resolution, 1 - expansion.window.n_min)
    rebuilt = synthesize(expansion, resolution=resolution, cap=cap)
    residual = f - rebuilt
    return inner_product(residual, residual)
