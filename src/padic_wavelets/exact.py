"""Exact complex amplitudes over a fixed prime p.

Every exact value arising here is a rational combination of p-power roots of
unity, possibly scaled by half-integer powers of p.  The class `Cyc` stores
such a number as a sparse map

    exponent e  ->  (a, b)   meaning   (a + b*sqrt(p)) * zeta^e,

where zeta = exp(2*pi*i / p^level) and a, b are Fractions.  Exponents are
kept in the canonical basis of the p^level-th cyclotomic field (the residues
whose top base-p digit is not p-1), so `is_zero` and `==` are exact: sums
like 1 + zeta_p + ... + zeta_p^(p-1) reduce to 0 structurally.

Mixing a `Cyc` with a float/complex demotes the result to `complex`; code
that wants to stay exact simply never introduces floats.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .errors import InvalidInputError
from .padic import RationalPhase, check_prime

_ZERO = Fraction(0)

# (a, b) pairs below denote a + b*sqrt(p).


def _q_mul(x, y, p):
    a, b = x
    c, d = y
    return (a * c + p * b * d, a * d + b * c)


def _q_complex(x, sqrtp: float) -> float:
    a, b = x
    return float(a) + float(b) * sqrtp


class Cyc:
    """Exact element of Q(sqrt(p), zeta_{p^level}); immutable by convention."""

    __slots__ = ("prime", "level", "terms")

    def __init__(self, prime, level, terms, _reduced=False):
        self.prime = prime
        self.level = level
        if _reduced:
            self.terms = terms
        else:
            self.level, self.terms = _normalize(prime, level, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyc":
        return cls(check_prime(p), 0, {}, _reduced=True)

    @classmethod
    def rational(cls, p: int, a) -> "Cyc":
        a = Fraction(a)
        if a == 0:
            return cls.zero(p)
        return cls(check_prime(p), 0, {0: (a, _ZERO)}, _reduced=True)

    @classmethod
    def one(cls, p: int) -> "Cyc":
        return cls.rational(p, 1)

    @classmethod
    def quad(cls, p: int, a, b) -> "Cyc":
        a, b = Fraction(a), Fraction(b)
        if a == 0 and b == 0:
            return cls.zero(p)
        return cls(check_prime(p), 0, {0: (a, b)}, _reduced=True)

    @classmethod
    def half_power(cls, p: int, half_exponent: int) -> "Cyc":
        """p raised to half_exponent/2, exactly."""
        q, r = divmod(half_exponent, 2)
        if r == 0:
            return cls.rational(p, Fraction(p) ** q)
        return cls.quad(p, 0, Fraction(p) ** q)

    @classmethod
    def root_of_unity(cls, p: int, phase: RationalPhase) -> "Cyc":
        """exp(2*pi*i*phase) for a phase whose denominator is p^t or 2*p^t."""
        check_prime(p)
        k, d = phase.numerator, phase.denominator
        if k == 0:
            return cls.one(p)
        t = 0
        rest = d
        while rest % p == 0:
            rest //= p
            t += 1
        if rest == 1:
            return cls(p, t, {k * _lift_unit(p, t, d): (Fraction(1), _ZERO)})
        if rest == 2 and p != 2:
            # e(k / 2p^t) = (-1)^k * zeta^(k * (p^t+1)/2)
            n = p**t
            sign = Fraction(-1 if k % 2 else 1)
            return cls(p, t, {(k * ((n + 1) // 2)) % n: (sign, _ZERO)})
        raise InvalidInputError(
            f"phase {k}/{d} is not a p-power root of unity for p={p}"
        )

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if self.level != 0:
            return False
        (a, b), = self.terms.values()
        return b == 0

    def rational_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise InvalidInputError("value is not rational")
        return self.terms[0][0]

    def single_term(self):
        """Return (coeff_a, coeff_b, phase) if the value is one basis term."""
        if self.is_zero:
            return (Fraction(0), Fraction(0), RationalPhase(0))
        if len(self.terms) != 1:
            return None
        (e, (a, b)), = self.terms.items()
        return (a, b, RationalPhase(e, self.prime**self.level))

    def as_phase_multiple(self):
        """(coeff_a, coeff_b, phase) with value = (a + b sqrt p) * e(phase),
        or None when the value is a genuine sum of distinct phases.

        Covers both a single stored term and the excluded-exponent pattern:
        a root whose top base-p digit is p-1 reduces to p-1 equal-coefficient
        basis terms, which this undoes."""
        if self.is_zero or len(self.terms) == 1:
            return self.single_term()
        p = self.prime
        if self.level >= 1 and len(self.terms) == p - 1:
            block = p ** (self.level - 1)
            residues = {e % block for e in self.terms}
            coeffs = set(self.terms.values())
            if (
                len(residues) == 1
                and len(coeffs) == 1
                and sorted(e // block for e in self.terms) == list(range(p - 1))
            ):
                a, b = coeffs.pop()
                e = (p - 1) * block + residues.pop()
                return (-a, -b, RationalPhase(e, p**self.level))
        return None

    def polar_exact(self):
        """(coeff_a, coeff_b, phase) with a + b*sqrt(p) >= 0, when the value
        is a magnitude times a single phase; otherwise None."""
        term = self.as_phase_multiple()
        if term is None:
            return None
        a, b, phase = term
        if float(a) + float(b) * self.prime**0.5 < 0:
            a, b, phase = -a, -b, phase + RationalPhase(1, 2)
        return (a, b, phase)

    # -- arithmetic --------------------------------------------------------

    def _lifted(self, level: int):
        shift = self.prime ** (level - self.level)
        return {e * shift: c for e, c in self.terms.items()}

    def __add__(self, other):
        if isinstance(other, Cyc):
            if other.prime != self.prime:
                raise InvalidInputError("amplitude primes differ")
            level = max(self.level, other.level)
            terms = dict(self._lifted(level))
            for e, (a, b) in other._lifted(level).items():
                ca, cb = terms.get(e, (_ZERO, _ZERO))
                terms[e] = (ca + a, cb + b)
            return Cyc(self.prime, level, _strip(terms))
        if isinstance(other, Rational):
            return self + Cyc.rational(self.prime, other)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyc(
            self.prime,
            self.level,
            {e: (-a, -b) for e, (a, b) in self.terms.items()},
            _reduced=True,
        )

    def __sub__(self, other):
        if isinstance(other, (Cyc, Rational)):
            return self + (-other if isinstance(other, Cyc) else Cyc.rational(self.prime, -Fraction(other)))
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if other.prime != self.prime:
                raise InvalidInputError("amplitude primes differ")
            p = self.prime
            level = max(self.level, other.level)
            modulus = p**level
            xs = self._lifted(level)
            ys = other._lifted(level)
            terms: dict = {}
            for e1, c1 in xs.items():
                for e2, c2 in ys.items():
                    e = (e1 + e2) % modulus
                    prod = _q_mul(c1, c2, p)
                    if e in terms:
                        a, b = terms[e]
                        terms[e] = (a + prod[0], b + prod[1])
                    else:
                        terms[e] = prod
            return Cyc(p, level, terms)
        if isinstance(other, Rational):
            q = Fraction(other)
            if q == 0:
                return Cyc.zero(self.prime)
            return Cyc(
                self.prime,
                self.level,
                {e: (a * q, b * q) for e, (a, b) in self.terms.items()},
                _reduced=True,
            )
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "Cyc":
        modulus = self.prime**self.level
        return Cyc(
            self.prime,
            self.level,
            {(-e) % modulus: c for e, c in self.terms.items()},
        )

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return (self - other).is_zero
        if isinstance(other, Rational):
            return (self - Cyc.rational(self.prime, other)).is_zero
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    __hash__ = None

    def __complex__(self) -> complex:
        import cmath

        p = self.prime
        sqrtp = p**0.5
        modulus = p**self.level
        total = 0j
        for e, c in self.terms.items():
            total += _q_complex(c, sqrtp) * cmath.exp(2j * cmath.pi * e / modulus)
        return total

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Cyc(p={self.prime}, 0)"
        parts = []
        n = self.prime**self.level
        for e in sorted(self.terms):
            a, b = self.terms[e]
            coeff = f"{a}" if b == 0 else (f"{b}*sqrt{self.prime}" if a == 0 else f"({a}+{b}*sqrt{self.prime})")
            parts.append(coeff if e == 0 else f"{coeff}*z({e}/{n})")
        return f"Cyc(p={self.prime}, " + " + ".join(parts) + ")"


def _lift_unit(p: int, t: int, d: int) -> int:
    # multiplier turning k/d into an exponent mod p^t (d divides p^t here)
    return p**t // d


def _strip(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c[0] != 0 or c[1] != 0}


def _normalize(p: int, level: int, terms: dict):
    """Reduce exponents into the canonical cyclotomic basis, drop zeros and
    lower the level as far as possible."""
    while True:
        if level == 0:
            acc = (_ZERO, _ZERO)
            for _, (a, b) in terms.items():
                acc = (acc[0] + a, acc[1] + b)
            terms = {} if acc == (_ZERO, _ZERO) else {0: acc}
            return 0, terms
        modulus = p**level
        block = p ** (level - 1)
        out: dict = {}

        def _acc(e, a, b):
            if e in out:
                ca, cb = out[e]
                out[e] = (ca + a, cb + b)
            else:
                out[e] = (a, b)

        for e, (a, b) in terms.items():
            e %= modulus
            q, r = divmod(e, block)
            if q == p - 1:
                # zeta^((p-1)*block + r) = -sum_{i<p-1} zeta^(i*block + r)
                for i in range(p - 1):
                    _acc(i * block + r, -a, -b)
            else:
                _acc(e, a, b)
        out = _strip(out)
        if out and all(e % p == 0 for e in out):
            terms = {e // p: c for e, c in out.items()}
            level -= 1
            continue
        if not out:
            return 0, {}
        return level, out


class CycSum:
    """Mutable accumulator for long exact sums (integration, Fourier)."""

    __slots__ = ("prime", "level", "terms", "fallback")

    def __init__(self, p: int):
        self.prime = p
        self.level = 0
        self.terms: dict = {}
        self.fallback: complex | None = None

    def add(self, value) -> None:
        if self.fallback is not None:
            self.fallback += complex(value)
            return
        if isinstance(value, Cyc):
            if value.level > self.level:
                shift = self.prime ** (value.level - self.level)
                self.terms = {e * shift: c for e, c in self.terms.items()}
                self.level = value.level
            shift = self.prime ** (self.level - value.level)
            for e, (a, b) in value.terms.items():
                key = e * shift
                if key in self.terms:
                    ca, cb = self.terms[key]
                    self.terms[key] = (ca + a, cb + b)
                else:
                    self.terms[key] = (a, b)
        elif isinstance(value, Rational):
            self.add(Cyc.rational(self.prime, value))
        else:
            # switch to floating mode
            current = complex(Cyc(self.prime, self.level, dict(self.terms)))
            self.fallback = current + complex(value)

    def result(self):
        if self.fallback is not None:
            return self.fallback
        return Cyc(self.prime, self.level, dict(self.terms))


def conj(value):
    """Complex conjugate for exact or floating amplitudes."""
    if isinstance(value, Cyc):
        return value.conj()
    return complex(value).conjugate()


def amp_is_zero(value) -> bool:
    if isinstance(value, Cyc):
        return value.is_zero
    return complex(value) == 0


def amp_equal(x, y, tol: float = 0.0) -> bool:
    if isinstance(x, Cyc) and isinstance(y, Cyc):
        return (x - y).is_zero
    return abs(complex(x) - complex(y)) <= tol


def is_half_integral(x) -> bool:
    """Whether x is a `Rational` in (1/2)Z, so that p**x is an exact `Cyc`."""
    return isinstance(x, Rational) and (2 * Fraction(x)).denominator == 1


def p_power_amp(p: int, exponent):
    """p**exponent: exact `Cyc` for half-integer exponents, float otherwise."""
    if is_half_integral(exponent):
        return Cyc.half_power(p, int(2 * Fraction(exponent)))
    if isinstance(exponent, complex):
        import cmath
        import math

        return cmath.exp(exponent * math.log(p))
    return float(p) ** float(exponent)
