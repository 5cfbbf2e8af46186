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

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, UnsupportedCaseError
from .exact import Cyc, amp_equal, conj
from .functions import character_amp
from .padic import check_prime, monna_rational
from .wavelets import KozyrevIndex, m_value, materialize, validate_index

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

    def jumps(self):
        """(x, jump) at every breakpoint, counting the function as 0 outside."""
        out = [(self.breakpoints[0], self.values[0])]
        for i in range(1, len(self.values)):
            out.append((self.breakpoints[i], self.values[i] - self.values[i - 1]))
        out.append((self.breakpoints[-1], -self.values[-1] + Fraction(0)))
        return out

    def scaled(self, factor) -> "RealStepFn":
        return RealStepFn(self.breakpoints, tuple(v * factor for v in self.values))


def step_equal(f: RealStepFn, g: RealStepFn) -> bool:
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return all(amp_equal(f.value_at(b), g.value_at(b)) for b in bps[:-1])


def step_monomial_integral(f: RealStepFn, degree: int):
    """Exact integral of f(x) * x^degree over [0, 1]."""
    total = Fraction(0)
    d1 = degree + 1
    for i, v in enumerate(f.values):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        total = total + v * (Fraction(b**d1 - a**d1) / d1)
    return total


def step_inner(f: RealStepFn, g: RealStepFn):
    """Hermitian <f, g> = integral of conj(f) * g, exact."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = Fraction(0)
    for i in range(len(bps) - 1):
        a, b = bps[i], bps[i + 1]
        total = total + conj(f.value_at(a)) * g.value_at(a) * (b - a)
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


def haar_evaluate(p: int, idx: HaarIndex, x: Fraction):
    """Pointwise value at a rational x in [0, 1)."""
    if not 0 <= x < 1:
        raise InvalidInputError("x outside [0, 1)")
    return haar_step(p, idx).value_at(Fraction(x))


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
    acc = Cyc.zero(p)
    for ell in range(p):
        weight = character_amp(p, Fraction(-ell, p))
        acc = acc + weight * Fraction((base + ell + 1) ** n - (base + ell) ** n)
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


# -- derivative identities on monomials ---------------------------------------


def _jump_moment(psi: RealStepFn, k: int):
    """int Psi (x^k)' dx through the jumps of Psi, boundary terms set to zero."""
    return -sum(jump * Fraction(x**k) for x, jump in psi.jumps())


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


# -- Monna pushforward and the exponent map -----------------------------------


def monna_pushforward(p: int, idx: KozyrevIndex, extra_depth: int = 0) -> RealStepFn:
    """Push a wavelet supported in Z_p through the Monna map.

    Each coset cell r + p^K Z_p inside Z_p maps to the interval
    [mu(r), mu(r) + p^(-K)); the cell images partition [0, 1) and carry the
    wavelet's cell values.  For label m != 0 the image equals the matching
    generalized Haar wavelet times the constant chi(j*m/p) attached to the
    coset representative (exactly 1 when m = 0)."""
    validate_index(p, idx)
    fn = materialize(p, idx, extra_depth)
    if fn.support_exponent > 0:
        raise UnsupportedCaseError(
            f"support reaches |x| = p^{fn.support_exponent} > 1; "
            "the pushforward needs support inside Z_p"
        )
    res = fn.resolution
    pieces = []
    for i in range(p**res):
        rep = Fraction(i)
        start = monna_rational(rep, p)
        pieces.append((start, fn.table.get(rep, Cyc.zero(p))))
    pieces.sort(key=lambda sv: sv[0])
    bps = tuple(s for s, _ in pieces) + (Fraction(1),)
    vals = tuple(v for _, v in pieces)
    return RealStepFn(bps, vals)


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


def rho_exponent(p: int, idx: KozyrevIndex) -> int:
    """-2 log_p(max |psi|) - 1, measured from the materialized table.

    Equals n - 1 for every label: the maximum modulus is p^(-n/2)
    independently of m and j."""
    fn = materialize(p, idx)
    max_mod = max(abs(complex(v)) for v in fn.table.values())
    raw = -2 * math.log(max_mod) / math.log(p) - 1
    nearest = round(raw)
    if abs(raw - nearest) > 1e-9:
        raise InvalidInputError(f"max modulus {max_mod} is not a half power of p")
    return int(nearest)
