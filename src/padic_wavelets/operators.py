"""Vladimirov derivative, ladder operators and commutation-relation checks.

Every operator here maps psi_(n,m,j) to c(n) psi_(n+s,m,j): none reads m
or j, and the wavelets are eigenvectors of D^a.  So an operator is a
`WeightedShift`, its total scale shift s and its factors in order, each
applied at scale n + offset, the offset being the shift made before it:

    Diagonal(a)     coefficient *= p^(a*(1-n))      (the derivative D^a)
    LogDiagonal     coefficient *= (1 - n)          (log_p D)
    Scalar(c)       coefficient *= c

J_(+-) and ell_k apply log_p D, then shift by +-1 and k.  A @ B applies B,
then A.

A relation is one row, a `Relation`: its name, its alpha, its sides (the
first equal to the sum of the rest, all of one shift) and whether it is
exact.  `relation_rows` yields a family's rows, and `check_relations` checks
each row at its interior scales, where the running shift of every side
stays inside the window, evaluating each side as one scalar per scale with
no expansion built.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import FloatRangeError, UnsupportedCaseError
from .exact import Cyc, added_terms, is_half_integral, lift, p_power_amp
from .functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    ball_size,
    cell_index,
    class_sums,
    reduce_rep,
    term_sums,
)
from .padic import frac_valp
from .wavelets import KozyrevIndex, Window


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
                # a Fraction keys by its numerator and denominator, which
                # hash fast; any other alpha by its type, since
                # Fraction(1, 2) == 0.5 but only the Fraction is exact
                key = ((alpha.numerator, alpha.denominator, at) if type(alpha) is Fraction
                       else (type(alpha), alpha, at))
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


# -- relations ------------------------------------------------------------------


WITT_RANGE = range(-3, 4)


@dataclass(frozen=True)
class Relation:
    """The relation sides[0] = sum of sides[1:], for `WeightedShift` sides
    of one shift.  `exact` follows from the inputs, not from the residual's
    values: a float relation is judged against a tolerance."""

    name: str
    alpha: object
    sides: tuple
    exact: bool

    def __post_init__(self):
        if len({op.shift for op in self.sides}) > 1:
            raise ValueError(f"{self.name}: sides of different shifts never agree")


def _commutator(name: str, alpha, a: WeightedShift, b: WeightedShift,
                expected: WeightedShift | None, exact: bool) -> Relation:
    """[a, b] = expected, or [a, b] = 0 when expected is None."""
    sides = (a @ b, b @ a) if expected is None else (a @ b, b @ a, expected)
    return Relation(name, alpha, sides, exact)


def relation_rows(family: str, p: int, alphas=()) -> Iterator[Relation]:
    """The relations of `family` over p, one row at a time, in the order
    `check algebra` reports them.

    sl2: [J+, J-] = 2 log_p D and [log_p D, J_s] = -s J_s.
    witt: [ell_a, ell_b] = (a-b) ell_(a+b) for a, b in `WITT_RANGE`.
    deformed: for each alpha, p^(s a/2) D^a J_s = p^(-s a/2) J_s D^a and
    [D^a, J_s] = (1-p^(s a)) D^a J_s for s = +1, -1, then [D^a, log_p D] = 0.
    semigroup: D^a1 D^a2 = D^(a1+a2) for every ordered pair of alphas.

    Rows are yielded, not listed, so that a check holds one row's
    operators at a time: the 49 Witt rows together hold about 900
    garbage-collected objects, which would set off a collection on every
    `check algebra` run."""
    if family == "sl2":
        jp, jm, logd = ell_op(+1), ell_op(-1), ell_op(0)
        yield _commutator("sl2:[J+,J-]-2logD", None, jp, jm, scalar_op(2) @ logd, True)
        yield _commutator("sl2:[logD,J+]+J+", None, logd, jp, scalar_op(-1) @ jp, True)
        yield _commutator("sl2:[logD,J-]-J-", None, logd, jm, scalar_op(1) @ jm, True)
    elif family == "witt":
        for a in WITT_RANGE:
            for b in WITT_RANGE:
                yield _commutator(f"witt:[l{a},l{b}]", None, ell_op(a), ell_op(b),
                                  scalar_op(a - b) @ ell_op(a + b), True)
    elif family == "semigroup":
        for a1 in alphas:
            for a2 in alphas:
                yield Relation("semigroup", (a1, a2),
                               (vladimirov(a1) @ vladimirov(a2), vladimirov(a1 + a2)),
                               is_half_integral(a1) and is_half_integral(a2))
    elif family == "deformed":
        logd = ell_op(0)
        for alpha in alphas:
            dal = vladimirov(alpha)
            exact = is_half_integral(alpha)
            # the prefactors p^(+-s a/2) need a half-integral a/2; dividing
            # by Fraction(2) keeps an integer alpha exact
            half = alpha / Fraction(2)
            for step in (+1, -1):
                js = ell_op(step)
                yield Relation(f"deformed:s={step:+d}", alpha, (
                    scalar_op(p_power_amp(p, step * half)) @ (dal @ js),
                    scalar_op(p_power_amp(p, -step * half)) @ (js @ dal)),
                    is_half_integral(half))
                expected = scalar_op(1 - p_power_amp(p, step * alpha)) @ dal @ js
                yield _commutator(f"commutator:[D^a,J{step:+d}]", alpha, dal, js,
                                  expected, exact)
            yield _commutator("commutator:[D^a,logD]", alpha, dal, logd, None, exact)
    else:
        raise ValueError(f"no relation family {family!r}")


def interior_scales(window: Window, *ops: WeightedShift) -> range:
    """Scales from which the running shift of every operator stays inside
    the window."""
    lo = min((op.lo for op in ops), default=0)
    hi = max((op.hi for op in ops), default=0)
    return range(window.n_min - lo, window.n_max - hi + 1)


@dataclass
class RelationResult:
    """One relation at one scale n, standing for each of its `labels`
    instances psi_(n,m,j): a residual never depends on m or j.  An exact
    relation passes only at exact zero, a float one when its residual is at
    most tol * scale = tol * max(1, largest |side coefficient|)."""

    relation: str
    n: int
    labels: int
    alpha: object
    residual: float
    exact: bool
    scale: float = 1.0

    def passed(self, tol: float) -> bool:
        return self.residual == 0.0 if self.exact else self.residual <= tol * self.scale

    @property
    def first_label(self) -> KozyrevIndex:
        """The first label of scale n: m = () and j = 1 come first."""
        return KozyrevIndex(self.n)


def check_relations(p: int, window: Window, rows) -> list[RelationResult]:
    """Each row checked at each of its interior scales, row by row.

    Every side maps psi_(n,m,j) to c(n) psi_(n+s,m,j) with the row's one
    shift s, so a side is one scalar per scale and the residual one scalar,
    the sides subtracted in order from the first; it never depends on m or
    j, so the labels of a scale, p^m_depth m-digit tuples times p - 1 values
    of j, are only counted.  Each side starts from the int 1 and the
    residual from 0, so they stay an int or `Fraction` until a D^a power or
    a `Cyc` prefactor enters.  Each p^(a(1-n)) is computed once per call."""
    powers: dict = {}
    labels = p**window.m_depth * (p - 1)
    out = []
    for row in rows:
        for n in interior_scales(window, *row.sides):
            values = [op.weight(p, n, 1, powers) for op in row.sides]
            # subtracted in order, from zero where the first side has none,
            # so that float bits are those of a coefficientwise difference
            # of expansions
            residual = values[0] or 0
            for c in values[1:]:
                if c is not None:
                    residual = residual - c
            scale = 1.0 if row.exact else max(
                [1.0] + [abs(complex(c)) for c in values if c is not None])
            out.append(RelationResult(row.name, n, labels, row.alpha,
                                      abs(complex(residual)), row.exact, scale))
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
    into the weights, and a cell then costs one product.  The sum runs on
    cell indices (`_kernel_cells`); the cap is checked on the ball's cell
    count, and only the nonzero output cells get a rational key.  It is
    exact when alpha is a half-integral Rational and every cell value is
    exact, and floating otherwise.
    """
    _check_kernel_alpha(alpha)
    p, m_exp, res = f.prime, f.support_exponent, f.resolution
    ball_size(p, m_exp, res, cap)
    cells = {cell_index(r, p, m_exp): v for r, v in f.table.items()}
    unit = Fraction(p) ** -m_exp
    out = _kernel_cells(alpha, p, m_exp, res, cells)
    return LocallyConstantFn(p, m_exp, res, {i * unit: v for i, v in out.items()})


def _kernel_cells(alpha, p: int, m_exp: int, res: int, cells: dict) -> dict:
    """The kernel sum of `vladimirov_kernel_apply` on the table `cells`
    (index i of the cell i p^(-M) on the ball of p^(M+K) cells -> value):
    its nonzero output cells, by increasing index.

    An exact table is summed by `functions.term_sums`, as integer terms at
    one cyclotomic level over one denominator.  The weights and C are
    level-0 values (c + d sqrt(p))/den, brought to one common denominator
    by `exact.lift`, so each scales a term pair (a, b) to (ac + p bd, ad + bc)
    and the paths P only add term dicts (`exact.added_terms`).  Each output
    cell is normalized once, as one `Cyc`.  A table with a float value is
    summed as amplitudes by `class_sums`, with the same steps in the same
    order."""
    depth = m_exp + res
    count = p**depth
    exact = is_half_integral(alpha) and all(isinstance(v, Cyc) for v in cells.values())
    if exact:
        a = Fraction(alpha)
        c_alpha = (1 - p_power_amp(p, a)) * _inv_one_minus(p_power_amp(p, -1 - a))
        tail = (p_power_amp(p, -a * (m_exp + 1)) * _inv_one_minus(p_power_amp(p, -a))
                * (1 - Fraction(1, p)))
        measure = Fraction(p) ** (-res)
    else:
        a = float(alpha)
        pa = float(p)
        try:
            c_alpha = (1.0 - pa**a) / (1.0 - pa ** (-1.0 - a))
            tail = (1.0 - 1.0 / pa) * pa ** (-(m_exp + 1) * a) / (1.0 - pa**-a)
            measure = pa**-res
        except OverflowError:
            raise FloatRangeError(
                f"a float power of {p} for alpha = {alpha} lies beyond the float range") from None
    # cells i != i0 with t = v_p(i - i0) lie p^(M-t) apart (cell i is i * p^(-M)):
    # weight c_alpha * measure * p^((1+alpha)(t-M))
    scale = c_alpha * measure
    weights = [scale * p_power_amp(p, (1 + a) * (t - m_exp)) for t in range(depth)]
    # v0's coefficient: every pair's weight, then the tail beyond the ball
    own = c_alpha * tail
    for t, w in enumerate(weights):
        own = own + w * (count // p**t - count // p ** (t + 1))

    if exact:
        level, den, sums = term_sums(p, cells, depth)
        # the weights and own, at level 0, as int pairs over one denominator
        _, common, constants = lift(p, [(c.level, c.terms, c.den) for c in weights + [own]])
        pairs = [added_terms([part]).get(0, (0, 0)) for part in constants]
        den *= common

        def scaled(terms, x, y):
            return ((e, (u * x + p * v * y, u * y + v * x)) for e, (u, v) in terms.items()), 1, 1

        def move(path, c, v, t):
            x, y = pairs[t]
            parts = [(path.items(), 1, 1)]
            if c is not None:
                parts.append(scaled(c, x, y))
            if v is not None:
                parts.append(scaled(v, -x, -y))
            return added_terms(parts)

        def finish(terms, v0):
            if v0 is not None:
                x, y = pairs[depth]
                terms = added_terms(((terms.items(), 1, 1), scaled(v0, -x, -y)))
            return Cyc(p, level, terms, den) if terms else None

        zero = {}
    else:
        sums = class_sums(p, {i: complex(v) for i, v in cells.items()}, depth)

        def move(path, c, v, t):
            d = (0j if c is None else c) - (0j if v is None else v)
            return path + weights[t] * d if d else path

        def finish(path, v0):
            return path if v0 is None else path - v0 * own

        zero = 0j
    paths = [zero]
    for t in range(depth):
        coarse, fine, size = sums[t], sums[t + 1], p**t
        step = []
        for r in range(size * p):
            q = r % size
            c, v = coarse.get(q), fine.get(r)
            # a class absent from both levels, or one sum that both levels
            # share (a class with one child), adds nothing
            step.append(paths[q] if c is v else move(paths[q], c, v, t))
        paths = step
    values, out = sums[depth], {}
    for i0 in range(count):
        value = finish(paths[i0], values.get(i0))
        if value:
            out[i0] = value
    return out


def translation_kernel_residual(alpha, f: LocallyConstantFn, shift) -> dict:
    """D^alpha(f(x - b)) - (D^alpha f)(x - b) as a table, zero cells
    dropped.

    Both sides lie on f's grid over the ball widened to hold the shift b,
    whose cell count is checked against `DEFAULT_CELL_CAP` before any table
    is built.  On that ball the translation by b moves cell i to
    i + s mod N, s the index of b's cell, so f's cells are kept as indices:
    both kernel sums run on index tables (`_kernel_cells`), f's cells are
    shifted by s before the first and the second's output after it, and
    the sides are subtracted cell by cell; only the nonzero residual cells
    get a rational key."""
    _check_kernel_alpha(alpha)
    p, res = f.prime, f.resolution
    b = Fraction(shift)
    support = f.support_exponent
    if b != 0:
        support = max(support, -frac_valp(b, p))
    count = ball_size(p, support, res)
    s = cell_index(reduce_rep(b, p, res), p, support)
    cells = {cell_index(r, p, support): v for r, v in f.table.items()}
    lhs = _kernel_cells(alpha, p, support, res, {(i + s) % count: v for i, v in cells.items()})
    rhs = {(i + s) % count: v
           for i, v in _kernel_cells(alpha, p, support, res, cells).items()}
    diff = ((i, lhs.get(i, 0) - rhs.get(i, 0)) for i in {**lhs, **rhs})
    unit = Fraction(p) ** -support
    return {i * unit: v for i, v in diff if v}
