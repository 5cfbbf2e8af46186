"""Vladimirov derivative, ladder operators and commutation-relation checks.

Every operator here maps psi_(n,m,j) to c(n) psi_(n+s,m,j): none reads m
or j, and the wavelets are eigenvectors of D^a.  So an operator is a
`WeightedShift`, its total scale shift s and its factors in order, each
applied at scale n + offset, the offset being the shift made before it:

    Diagonal(a)     coefficient *= p^(a*(1-n))      (the derivative D^a)
    LogDiagonal     coefficient *= (1 - n)          (log_p D)
    Scalar(c)       coefficient *= c

J_(+-) and ell_k apply log_p D, then shift by +-1 and k.  A @ B applies B,
then A.  Relation checks restrict themselves to interior scales, where the
running shift of every operator stays inside the window; there the
`*_results` families evaluate each side as one scalar per scale, with no
expansion built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedCaseError
from .exact import Cyc, is_half_integral, p_power_amp
from .functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    ball_reps,
    cell_index,
    class_sums,
    translate,
)
from .padic import frac_valp
from .wavelets import KozyrevIndex, Window, enumerate_m_digits, label_translate


@dataclass(frozen=True)
class Diagonal:
    alpha: object = 1


@dataclass(frozen=True)
class LogDiagonal:
    pass


@dataclass(frozen=True)
class Scalar:
    factor: object = 1


@dataclass(frozen=True)
class WeightedShift:
    """psi_(n,m,j) -> c(n) psi_(n+shift,m,j).  Each step is (offset,
    factor): a Diagonal, LogDiagonal or Scalar applied at scale n + offset.
    lo <= 0 <= hi bound the running shift.  It carries no window check: the
    relation checks evaluate it only at interior scales."""

    shift: int
    steps: tuple
    lo: int
    hi: int

    def __matmul__(self, other: "WeightedShift") -> "WeightedShift":
        """Operator product: (A @ B)(e) = A(B(e)), B's steps first, then
        A's at offset B.shift."""
        at = other.shift
        return WeightedShift(at + self.shift,
                             other.steps + tuple((at + o, f) for o, f in self.steps),
                             min(other.lo, at + self.lo), max(other.hi, at + self.hi))

    def weight(self, p: int, n: int, c, powers: dict):
        """c times each factor at scale n, in order, so that float bits are
        those of applying the factors one by one; None once a product is
        exactly zero.  c may be an int: the product then stays an int or
        `Fraction` until a factor is a `Cyc` or a float.  `powers` holds
        p^(a(1-n)) by (a, n) for the caller."""
        for offset, prim in self.steps:
            at = n + offset
            if isinstance(prim, Diagonal):
                alpha = prim.alpha
                # typed: Fraction(1, 2) == 0.5, but only the Fraction is exact
                key = (type(alpha), alpha, at)
                factor = powers.get(key)
                if factor is None:
                    factor = powers[key] = p_power_amp(p, alpha * (1 - at))
            elif isinstance(prim, LogDiagonal):
                factor = 1 - at
            else:
                factor = prim.factor
            c = c * factor
            if not c:
                return None
        return c


def scalar_op(c) -> WeightedShift:
    return WeightedShift(0, ((0, Scalar(c)),), 0, 0)


def vladimirov(alpha) -> WeightedShift:
    return WeightedShift(0, ((0, Diagonal(alpha)),), 0, 0)


def ell_op(k: int) -> WeightedShift:
    """ell_k = shift by k after log_p D, so ell_k psi_n = (1-n) psi_(n+k).
    The ladder family: ell_0 = log_p D and ell_(+-1) = J_(+-)."""
    return WeightedShift(k, ((0, LogDiagonal()),), min(k, 0), max(k, 0))


# -- commutators ----------------------------------------------------------------


def _commutator_sides(a: WeightedShift, b: WeightedShift,
                      expected: WeightedShift | None) -> list:
    """The sides of [a, b] = expected."""
    sides = [a @ b, b @ a]
    if expected is not None:
        sides.append(expected)
    return sides


def _deformed_sides(p: int, alpha, step: int) -> list:
    """p^(s a/2) D^a J_s and p^(-s a/2) J_s D^a, each prefactor multiplied last."""
    dal, js = vladimirov(alpha), ell_op(step)
    # dividing by Fraction(2) keeps an integer alpha exact
    return [scalar_op(p_power_amp(p, step * alpha / Fraction(2))) @ (dal @ js),
            scalar_op(p_power_amp(p, -step * alpha / Fraction(2))) @ (js @ dal)]


def interior_scales(window: Window, *ops: WeightedShift) -> range:
    """Scales from which the running shift of every operator stays inside
    the window."""
    lo = min((op.lo for op in ops), default=0)
    hi = max((op.hi for op in ops), default=0)
    return range(window.n_min - lo, window.n_max - hi + 1)


@dataclass
class RelationResult:
    """An exact relation passes only at exact zero, a float one when its
    residual is at most tol * scale = tol * max(1, largest |side coefficient|)."""

    relation: str
    index: KozyrevIndex
    alpha: object
    residual: float
    exact: bool
    scale: float = 1.0

    def passed(self, tol: float) -> bool:
        return self.residual == 0.0 if self.exact else self.residual <= tol * self.scale


def _scale_labels(p: int, window: Window, n: int) -> list[KozyrevIndex]:
    return [KozyrevIndex(n, m, j)
            for m in enumerate_m_digits(p, window.m_depth) for j in range(1, p)]


def _for_labels(results, labels) -> list[RelationResult]:
    """`results` reported again for each label, label by label."""
    return [RelationResult(r.relation, idx, r.alpha, r.residual, r.exact, r.scale)
            for idx in labels for r in results]


class _ScaleWalk:
    """One `*_results` call over the interior scales.  Every side maps
    psi_(n,m,j) to c(n) psi_(n+s,m,j), so it is one scalar per scale, and a
    residual never depends on m or j.  Each side starts from the int 1 and
    the residual from 0, so they stay an int or `Fraction` until a D^a
    power or a `Cyc` prefactor enters.  The labels of each scale and
    each p^(a(1-n)) are computed once and kept for this call only."""

    def __init__(self, p: int, window: Window):
        self.p, self.window = p, window
        self.powers: dict = {}
        self.labels: dict = {}

    def results(self, ops, evaluate) -> list[RelationResult]:
        """`evaluate(n)`'s results at each interior scale n of `ops`,
        repeated for every label (n, m, j) in order."""
        out = []
        for n in interior_scales(self.window, *ops):
            labels = self.labels.get(n)
            if labels is None:
                labels = self.labels[n] = _scale_labels(self.p, self.window, n)
            out += _for_labels(evaluate(n), labels)
        return out

    def check(self, relation, alpha, sides, n: int, exact: bool) -> RelationResult:
        """The relation sides[0] = sum of sides[1:] on psi_n, for operator
        sides; `exact` follows from the inputs, not from the residual's
        values."""
        values = []
        for op in sides:
            c = op.weight(self.p, n, 1, self.powers)
            values.append(None if c is None else (n + op.shift, c))
        # subtracted in order, from zero where the first side has no
        # coefficient, so that float bits are those of a coefficientwise
        # difference of expansions
        first, *rest = values
        residual = dict([first]) if first else {}
        for value in rest:
            if value is None:
                continue
            at, c = value
            total = residual.get(at, 0) - c
            if not total:
                residual.pop(at, None)
            else:
                residual[at] = total
        worst = max((abs(complex(c)) for c in residual.values()), default=0.0)
        scale = 1.0 if exact else max(
            1.0, *(0.0 if v is None else abs(complex(v[1])) for v in values))
        return RelationResult(relation, None, alpha, worst, exact, scale)


def relation_names(family: str, k_range: int = 3) -> list[str]:
    """The relations that `family`'s `*_results` report, whether or not the
    window holds an instance of them."""
    ks = range(-k_range, k_range + 1)
    return {
        "sl2": ["sl2:[J+,J-]-2logD", "sl2:[logD,J+]+J+", "sl2:[logD,J-]-J-"],
        "witt": [f"witt:[l{a},l{b}]" for a in ks for b in ks],
        "deformed": ["deformed:s=+1", "deformed:s=-1", "commutator:[D^a,J+1]",
                     "commutator:[D^a,J-1]", "commutator:[D^a,logD]"],
        "semigroup": ["semigroup"],
        "translation": ["translation:spectral"],
    }[family]


def sl2_results(p: int, window: Window) -> list[RelationResult]:
    """[J+, J-] = 2 log_p D and [log_p D, J_s] = -s J_s on interior vectors."""
    walk = _ScaleWalk(p, window)
    jp, jm, logd = ell_op(+1), ell_op(-1), ell_op(0)
    sides = _commutator_sides(jp, jm, scalar_op(2) @ logd)
    out = walk.results((jp, jm), lambda n: [
        walk.check("sl2:[J+,J-]-2logD", None, sides, n, True)])
    for step, name in ((+1, "sl2:[logD,J+]+J+"), (-1, "sl2:[logD,J-]-J-")):
        js = ell_op(step)
        sides = _commutator_sides(logd, js, scalar_op(-step) @ js)
        out += walk.results((js,), lambda n: [walk.check(name, None, sides, n, True)])
    return out


def witt_results(p: int, window: Window, k_range: int = 3) -> list[RelationResult]:
    """[ell_a, ell_b] = (a-b) ell_(a+b) for |a|, |b| <= k_range."""
    walk = _ScaleWalk(p, window)
    out = []
    for a in range(-k_range, k_range + 1):
        for b in range(-k_range, k_range + 1):
            la, lb, lab = ell_op(a), ell_op(b), ell_op(a + b)
            sides = _commutator_sides(la, lb, scalar_op(a - b) @ lab)
            out += walk.results((la, lb, lab), lambda n: [
                walk.check(f"witt:[l{a},l{b}]", None, sides, n, True)])
    return out


def deformed_results(p: int, window: Window, alphas) -> list[RelationResult]:
    """The deformed identity plus [D^a, J_s] = (1-p^(s a)) D^a J_s and
    [D^a, log_p D] = 0."""
    walk = _ScaleWalk(p, window)
    out = []
    logd = ell_op(0)
    for alpha in alphas:
        dal = vladimirov(alpha)
        exact = is_half_integral(alpha)
        # the prefactors p^(+-s a/2) need a half-integral a/2
        exact_deformed = is_half_integral(alpha / Fraction(2))
        for step in (+1, -1):
            js = ell_op(step)
            deformed = _deformed_sides(p, alpha, step)
            expected = scalar_op(1 - p_power_amp(p, step * alpha)) @ dal @ js
            commutator = _commutator_sides(dal, js, expected)
            out += walk.results((js,), lambda n: [
                walk.check(f"deformed:s={step:+d}", alpha, deformed, n, exact_deformed),
                walk.check(f"commutator:[D^a,J{step:+d}]", alpha, commutator, n, exact)])
        commutator = _commutator_sides(dal, logd, None)
        out += walk.results((), lambda n: [
            walk.check("commutator:[D^a,logD]", alpha, commutator, n, exact)])
    return out


def semigroup_results(p: int, window: Window, alpha_pairs) -> list[RelationResult]:
    """D^a1 D^a2 = D^(a1+a2), checked coefficientwise."""
    walk = _ScaleWalk(p, window)
    out = []
    for a1, a2 in alpha_pairs:
        exact = is_half_integral(a1) and is_half_integral(a2)
        sides = [vladimirov(a1) @ vladimirov(a2), vladimirov(a1 + a2)]
        out += walk.results((), lambda n: [
            walk.check("semigroup", (a1, a2), sides, n, exact)])
    return out


def translation_spectral_results(p: int, window: Window, shift: Fraction,
                                 alphas) -> list[RelationResult]:
    """D^a (label-translate) - (label-translate) D^a on the basis vectors
    whose translated label stays inside the window.  A label translation
    keeps n and the coefficient, so both sides are D^a on psi_n, and one
    evaluation per scale gives the residual of all its labels."""
    b = Fraction(shift)
    inside = [[idx for idx in _scale_labels(p, window, n)
               if window.contains(label_translate(idx, b, p))]
              for n in interior_scales(window)]
    walk = _ScaleWalk(p, window)
    out = []
    for alpha in alphas:
        exact = is_half_integral(alpha)
        side = vladimirov(alpha)
        for labels in filter(None, inside):
            out += _for_labels([walk.check(
                "translation:spectral", alpha, [side, side], labels[0].n, exact)], labels)
    return out


# -- kernel form of the Vladimirov derivative ---------------------------------


def _check_kernel_alpha(alpha):
    if isinstance(alpha, complex):
        raise UnsupportedCaseError(
            "kernel form needs real alpha > 0; use the spectral form instead"
        )
    if not float(alpha) > 0:
        raise UnsupportedCaseError(
            "kernel form needs alpha > 0; use the spectral form instead"
        )


def _inv_one_minus(s: Cyc) -> Cyc:
    """1/(1 - s) for s = p^(k/2): (1 + s)/(1 - s^2), where s^2 is rational."""
    return (1 + s) * (1 / (1 - s * s).rational_value())


def vladimirov_kernel_apply(alpha, f: LocallyConstantFn,
                            cap: int = DEFAULT_CELL_CAP) -> LocallyConstantFn:
    """D^alpha f on f's cell grid via the difference-kernel integral.

    The integrand is cellwise constant away from the evaluation cell, the
    evaluation cell itself contributes nothing, and the tail beyond the
    support ball is the closed-form geometric sum
    -f(x) (1-1/p) p^(-(M+1) alpha) / (1 - p^(-alpha)).  The kernel depends
    on x - y only through |x - y|_p, so the cell sum needs only the class
    sums S_t[r] of f over the cells i = r mod p^t (cell i is i * p^(-M),
    N = p^(M+K) cells, T = M + K).  With w_t = p^((1+alpha)(t-M)),
    C = sum_(t<T) w_t (N/p^t - N/p^(t+1)) and
    P[i0] = sum_(t<T) w_t (S_t[i0 mod p^t] - S_(t+1)[i0 mod p^(t+1)]),

        D^alpha f(i0) = c_alpha ((P[i0] - f(i0) C) p^(-K) - f(i0) tail),

    which costs O(N) for the whole table instead of O(N^2) cell pairs: the
    S_t are built bottom up and the P top down, with c_alpha p^(-K) folded
    into the weights, and a cell then costs one product.  The sum is exact
    when alpha is a half-integral Rational and every cell value is exact,
    and floating otherwise; only the constants and the cell values differ
    between the two.
    """
    _check_kernel_alpha(alpha)
    p = f.prime
    m_exp, res = f.support_exponent, f.resolution
    reps = ball_reps(p, m_exp, res, cap)
    if is_half_integral(alpha) and f.is_exact():
        a = Fraction(alpha)
        c_alpha = (1 - p_power_amp(p, a)) * _inv_one_minus(p_power_amp(p, -1 - a))
        tail = (p_power_amp(p, -a * (m_exp + 1)) * _inv_one_minus(p_power_amp(p, -a))
                * (1 - Fraction(1, p)))
        measure = Fraction(p) ** (-res)
        zero = Cyc.zero(p)
        table = f.table
    else:
        a = float(alpha)
        pa = float(p)
        c_alpha = (1.0 - pa**a) / (1.0 - pa ** (-1.0 - a))
        tail = (1.0 - 1.0 / pa) * pa ** (-(m_exp + 1) * a) / (1.0 - pa**-a)
        measure = pa**-res
        zero = 0j
        table = {r: complex(v) for r, v in f.table.items()}
    depth, cells = m_exp + res, len(reps)
    sums = class_sums(p, {cell_index(r, p, m_exp): v for r, v in table.items()}, depth)
    # cells i != i0 with t = v_p(i - i0) lie p^(M-t) apart (cell i is i * p^(-M)):
    # weight c_alpha * measure * p^((1+alpha)(t-M))
    scale = c_alpha * measure
    weights = [scale * p_power_amp(p, (1 + a) * (t - m_exp)) for t in range(depth)]
    # v0's coefficient: every pair's weight, then the tail beyond the ball
    own = c_alpha * tail
    for t, w in enumerate(weights):
        own = own + w * (cells // p**t - cells // p ** (t + 1))

    paths = [zero]
    for t, w in enumerate(weights):
        coarse, fine, size = sums[t], sums[t + 1], p**t
        step = []
        for r in range(size * p):
            q = r % size
            d = coarse.get(q, zero) - fine.get(r, zero)
            step.append(paths[q] + w * d if d else paths[q])
        paths = step

    values, out = sums[depth], {}
    for i0, r0 in enumerate(reps):
        v0 = values.get(i0)
        value = paths[i0] if v0 is None else paths[i0] - v0 * own
        if value:
            out[r0] = value
    return LocallyConstantFn(p, m_exp, res, out)


def translation_kernel_residual(alpha, f: LocallyConstantFn, shift) -> LocallyConstantFn:
    """D^alpha(translate f) - translate(D^alpha f) on the common ball."""
    p = f.prime
    b = Fraction(shift)
    support = f.support_exponent
    if b != 0:
        support = max(support, -frac_valp(b, p))
    base = f.with_support(support)
    lhs = vladimirov_kernel_apply(alpha, translate(base, b))
    rhs = translate(vladimirov_kernel_apply(alpha, base), b)
    return lhs - rhs

