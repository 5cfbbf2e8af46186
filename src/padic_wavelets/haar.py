"""Generalized Haar wavelets on [0, 1] and the Monna-map bridge to Q_p.

The orthonormal family is

    Psi_{L,t}(x) = p^(L/2) * sum_{l<p} e^(2 pi i l / p) * 1_{I(L,t,l)}(x),
    I(L,t,l) = [(p t + l) p^(-L-1), (p t + l + 1) p^(-L-1)),

with level L >= 0 and translate t in [0, p^L); <Psi, Psi> = 1.  The `paper`
convention multiplies by sqrt(p) (squared norm p), matching the family
written with prefactor p^(n'/2) over p cells of width p^(-n'); labels map as
(n', m') = (L+1, p*t).

All integration here is exact piecewise-polynomial quadrature over rational
breakpoints: no numerical integration error enters any identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, UnsupportedCaseError
from .exact import Cyc, amp_equal, conj
from .functions import character_amp
from .padic import check_prime, monna_rational
from .wavelets import (
    KozyrevIndex,
    Window,
    enumerate_m_digits,
    m_value,
    materialize,
    validate_index,
)

CONVENTIONS = ("orthonormal", "paper")


@dataclass(frozen=True, order=True)
class HaarIndex:
    level: int
    translate: int
    convention: str = "orthonormal"

    def __post_init__(self):
        if self.level < 0:
            raise InvalidInputError("level must be >= 0")
        if self.convention not in CONVENTIONS:
            raise InvalidInputError(f"convention must be one of {CONVENTIONS}")


def _check_translate(p: int, idx: HaarIndex) -> None:
    if not 0 <= idx.translate < p**idx.level:
        raise InvalidInputError(
            f"translate {idx.translate} outside [0, p^{idx.level})"
        )


@dataclass(frozen=True)
class RealStepFn:
    """Right-open step function on [0, 1): value i holds on
    [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise InvalidInputError("breakpoints must run from 0 to 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise InvalidInputError("breakpoints must strictly increase")
        if len(self.values) != len(bps) - 1:
            raise InvalidInputError("need one value per subinterval")

    def value_at(self, x: Fraction):
        if not 0 <= x < 1:
            raise InvalidInputError("argument outside [0, 1)")
        import bisect

        i = bisect.bisect_right(self.breakpoints, x) - 1
        return self.values[i]

    def scaled(self, factor) -> "RealStepFn":
        return RealStepFn(self.breakpoints, tuple(v * factor for v in self.values))


def step_equal(f: RealStepFn, g: RealStepFn) -> bool:
    """Whether f = g on [0, 1): one merge walk over the two sorted
    breakpoint tuples compares the values on every piece of the common
    refinement, piece i of f against piece j of g where they overlap."""
    fb, gb = f.breakpoints, g.breakpoints
    fv, gv = f.values, g.values
    i = j = 0
    # both end at 1, so the walk leaves f and g at the same step
    while i < len(fv):
        if not amp_equal(fv[i], gv[j]):
            return False
        a, b = fb[i + 1], gb[j + 1]
        if a <= b:
            i += 1
        if b <= a:
            j += 1
    return True


def step_monomial_integral(f: RealStepFn, degree: int):
    """Exact integral of f(x) * x^degree over [0, 1]."""
    total = Fraction(0)
    d1 = degree + 1
    for i, v in enumerate(f.values):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        total = total + v * (Fraction(b**d1 - a**d1) / d1)
    return total


def haar_step(p: int, idx: HaarIndex) -> RealStepFn:
    """The wavelet as an exact step function on [0, 1)."""
    check_prime(p)
    _check_translate(p, idx)
    width = Fraction(1, p ** (idx.level + 1))
    start = idx.translate * p * width
    amp = Cyc.half_power(p, idx.level)
    if idx.convention == "paper":
        amp = amp * Cyc.half_power(p, 1)
    bps = [Fraction(0)]
    vals = []
    if start > 0:
        bps.append(start)
        vals.append(Cyc.zero(p))
    for ell in range(p):
        bps.append(start + (ell + 1) * width)
        vals.append(amp * character_amp(p, Fraction(ell, p)))
    if bps[-1] < 1:
        bps.append(Fraction(1))
        vals.append(Cyc.zero(p))
    return RealStepFn(tuple(bps), tuple(vals))


# -- monomial expansion coefficients -----------------------------------------


def monomial_coefficient(p: int, degree: int, idx: HaarIndex):
    """Closed-form <Psi_idx, x^degree>: with n = degree + 1,

        p^(L/2) p^(-(L+1) n) / n * sum_l conj(w_p^l) [(pt+l+1)^n - (pt+l)^n],

    conjugating the root of unity because the coefficient pairs against the
    conjugated wavelet.  For the `paper` convention divide by sqrt(p)."""
    check_prime(p)
    _check_translate(p, idx)
    if degree < 0:
        raise InvalidInputError("degree must be >= 0")
    n = degree + 1
    base = idx.translate * p
    # zeta_p^(-l) D_l as one term each at level 1, normalized once
    acc = Cyc(p, 1, {-ell % p: ((base + ell + 1) ** n - (base + ell) ** n, 0)
                     for ell in range(p)})
    prefactor = Fraction(1, n * p ** ((idx.level + 1) * n))
    result = Cyc.half_power(p, idx.level) * prefactor * acc
    if idx.convention == "paper":
        result = result * Cyc.half_power(p, -1)
    return result


def monomial_coefficient_quadrature(p: int, degree: int, idx: HaarIndex):
    """The same coefficient by direct exact quadrature of x^degree conj(Psi)."""
    psi = haar_step(p, idx)
    return step_monomial_integral(RealStepFn(psi.breakpoints, tuple(map(conj, psi.values))),
                                  degree)


def scaling_constant(degree: int) -> Fraction:
    """Coefficient of the unit-interval indicator in the expansion of
    x^degree: its mean 1/(degree+1)."""
    return Fraction(1, degree + 1)


# -- Monna pushforward and the exponent map -----------------------------------


def monna_pushforward(p: int, idx: KozyrevIndex, extra_depth: int = 0) -> RealStepFn:
    """Push a wavelet supported in Z_p through the Monna map.

    Each coset cell r + p^K Z_p inside Z_p maps to the interval
    [mu(r), mu(r) + p^(-K)); the cell images partition [0, 1).  The images
    of the wavelet's support cells carry its values, and each gap between
    them, the images of the cells off the support, is one piece of value 0.
    For label m != 0 the image equals the matching generalized Haar wavelet
    times the constant chi(j*m/p) attached to the coset representative
    (exactly 1 when m = 0)."""
    validate_index(p, idx)
    fn = materialize(p, idx, extra_depth)
    if fn.support_exponent > 0:
        raise UnsupportedCaseError(
            f"support reaches |x| = p^{fn.support_exponent} > 1; "
            "the pushforward needs support inside Z_p"
        )
    width = Fraction(1, p**fn.resolution)
    pieces = sorted(((monna_rational(rep, p), v) for rep, v in fn.table.items()),
                    key=lambda sv: sv[0])
    zero = Cyc.zero(p)
    bps, vals = [], []
    end = Fraction(0)
    for start, v in pieces:
        if start > end:
            bps.append(end)
            vals.append(zero)
        bps.append(start)
        vals.append(v)
        end = start + width
    if end < 1:
        bps.append(end)
        vals.append(zero)
    return RealStepFn(tuple(bps) + (Fraction(1),), tuple(vals))


def pushforward_phase(p: int, idx: KozyrevIndex) -> Cyc:
    """The representative-dependent constant chi(j*m/p) carried by the image."""
    return character_amp(p, Fraction(idx.j) * m_value(idx, p) / p)


def haar_index_for(p: int, idx: KozyrevIndex) -> HaarIndex:
    """Label correspondence: level -n, translate read off the support coset."""
    validate_index(p, idx)
    if idx.n > 0 or idx.n + idx.m_depth > 0:
        raise UnsupportedCaseError("support must sit inside Z_p")
    level = -idx.n
    support_rep = m_value(idx, p) * Fraction(p) ** level
    t = monna_rational(support_rep, p) * p**level
    if t.denominator != 1:
        raise InvalidInputError("support coset does not map to an integer translate")
    return HaarIndex(level, int(t))


def monna_instances(p: int, window: Window):
    """Every instance of the Monna correspondence over the window's labels
    (n, m) with n <= 0 and n + depth(m) <= 0, i.e. supported in Z_p, as
    (family, label, passed); families in sorted order, each in label order.
    Every comparison is exact.

    - `labels`: at level L = -n, `haar_index_for` sends the labels (n, m, 1)
      one to one into (L, t), t < p^L, and onto them when the window's
      m-depth reaches L;
    - `modulus`: psi * conj(psi) = p^(-n) on every cell, for every j;
    - `monomial`: <Psi_(L+1,t), x^d> = p^(1/2-(d+1)) <Psi_(L,t), x^d>, the
      scaling eigenvalue of x^d, for 1 <= d <= 4 and -L, -L-1 in the window;
    - `pushforward`: the Monna image of psi_(n,m,1) is the Haar wavelet of
      `haar_index_for` times `pushforward_phase`."""
    scales = range(window.n_min, min(window.n_max, 0) + 1)
    labels = [KozyrevIndex(n, m) for n in scales
              for m in enumerate_m_digits(p, min(window.m_depth, -n))]
    seen = set()
    for idx in labels:
        h = haar_index_for(p, idx)
        yield "labels", idx, h.level == -idx.n and 0 <= h.translate < p**h.level and h not in seen
        seen.add(h)
    onto = [HaarIndex(-n, t) for n in scales if window.m_depth >= -n for t in range(p**-n)]
    yield from (("labels", h, h in seen) for h in onto)
    for idx in labels:
        modulus = Fraction(p) ** -idx.n
        for j in range(1, p):
            label = KozyrevIndex(idx.n, idx.m_digits, j)
            cells = materialize(p, label).table.values()
            yield "modulus", label, bool(cells) and all(v * conj(v) == modulus for v in cells)
    for degree in range(1, 5):
        eigenvalue = Cyc.half_power(p, -1 - 2 * degree)
        for level in range(max(0, -window.n_max), -window.n_min):
            for t in range(p**level):
                lo = monomial_coefficient(p, degree, HaarIndex(level, t))
                hi = monomial_coefficient(p, degree, HaarIndex(level + 1, t))
                yield "monomial", (degree, HaarIndex(level, t)), hi == lo * eigenvalue
    for idx in labels:
        image = haar_step(p, haar_index_for(p, idx)).scaled(pushforward_phase(p, idx))
        yield "pushforward", idx, step_equal(monna_pushforward(p, idx), image)
