"""The digit structure of Q_p that the wavelets read.

A wavelet's support test |p^n x - m|_p <= 1 and its character
chi(j p^(n-1) x) read only the base-p digits of x and its fractional part,
so this module holds no p-adic arithmetic: it converts between rationals and
digits, reads valuations, character phases in Q/Z and the Monna map.

A finite-precision point `PAdicNumber` is a valuation N together with K
base-p digits (d0, d1, ...), d0 != 0, standing for

    p^N * (d0 + d1*p + d2*p^2 + ... + d_{K-1}*p^{K-1}) + O(p^{N+K}).

Digits beyond the stored window are unknown; digits below the valuation are
exactly zero.  All values are immutable and all operations are pure, so they
may be shared freely between threads.  Negative rationals are represented by
their complement digits (15 = -1 mod 2^4 and so on), not by a sign flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidInputError

_PRIMES: set[int] = set()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _PRIMES:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    _PRIMES.add(n)
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidInputError(f"{p!r} is not a prime")
    return p


def valp(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing the nonzero integer n."""
    if n == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_valp(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return valp(q.numerator, p) - valp(q.denominator, p)


def int_to_digits(n: int, p: int, count: int) -> tuple[int, ...]:
    """Base-p digits of n, least significant first, padded to `count`."""
    out = []
    for _ in range(count):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def digits_to_int(digits, p: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


@dataclass(frozen=True, order=True)
class RationalPhase:
    """An element k/d of Q/Z, denoting the unit complex number e^(2*pi*i*k/d).

    Stored reduced with 0 <= k < d; addition is the group law of Q/Z, which
    mirrors multiplication of the corresponding roots of unity.
    """

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        if self.denominator <= 0:
            raise InvalidInputError("phase denominator must be positive")
        num = self.numerator % self.denominator
        g = gcd(num, self.denominator)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", self.denominator // g)

    def __add__(self, other: "RationalPhase") -> "RationalPhase":
        return RationalPhase(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )


@dataclass(frozen=True)
class PAdicNumber:
    """A finite-precision point of Q_p, read by `wavelets.evaluate` and
    the Monna map.

    For zero values `digits` is empty.  `exact` distinguishes a true zero
    from an inexact one, O(p^valuation), whose digits below `valuation` are
    known to vanish; `from_rational` makes only true zeros, but `evaluate`
    still accepts an inexact one.
    """

    prime: int
    valuation: int
    digits: tuple[int, ...]
    exact: bool = True

    def __post_init__(self):
        check_prime(self.prime)
        if self.digits:
            if self.digits[0] == 0:
                raise InvalidInputError("leading digit must be nonzero")
            if any(not (0 <= d < self.prime) for d in self.digits):
                raise InvalidInputError("digits must lie in [0, p-1]")

    @classmethod
    def zero(cls, p: int) -> "PAdicNumber":
        return cls(p, 0, ())

    @property
    def is_zero(self) -> bool:
        return not self.digits

    @property
    def precision(self) -> int:
        return len(self.digits)

    def unit_int(self) -> int:
        return digits_to_int(self.digits, self.prime)

    def to_rational(self) -> Fraction:
        """The exact rational denoted by the stored digits."""
        return self.unit_int() * Fraction(self.prime) ** self.valuation

    def monna(self) -> Fraction:
        """Digit-reversing Monna image: sum d_m p^m maps to sum d_m p^(-m-1)."""
        return monna_rational(self.to_rational(), self.prime)


def from_rational(num: int, den: int, p: int, precision: int) -> PAdicNumber:
    """K-digit expansion of num/den; valuation = ord_p(num) - ord_p(den).

    The denominator's unit part is inverted modulo p^K, so negative and
    non-terminating rationals come out as complement digits.
    """
    check_prime(p)
    if den == 0:
        raise InvalidInputError("denominator must be nonzero")
    if precision < 1:
        raise InvalidInputError("precision must be >= 1")
    if num == 0:
        return PAdicNumber.zero(p)
    vn, vd = valp(num, p), valp(den, p)
    u = num // p**vn
    v = den // p**vd
    modulus = p**precision
    unit = (u * pow(v, -1, modulus)) % modulus
    return PAdicNumber(p, vn - vd, int_to_digits(unit, p, precision))


def rational_character_phase(q: Fraction, p: int) -> RationalPhase:
    """Phase of the additive character at an exact rational argument.

    Splits the denominator as p^t * u and reads off the p-adic fractional
    part (a * u^{-1} mod p^t) / p^t, which is exact for every rational.
    """
    t = valp(q.denominator, p)
    if t == 0:
        return RationalPhase(0)
    modulus = p**t
    return RationalPhase(q.numerator * pow(q.denominator // modulus, -1, modulus), modulus)


def monna_rational(q: Fraction, p: int) -> Fraction:
    """Monna image of a nonnegative rational with finite base-p expansion."""
    if q < 0:
        raise InvalidInputError("Monna map implemented for nonnegative reps")
    s = valp(q.denominator, p)
    scaled = q * p**s
    if scaled.denominator != 1:
        raise InvalidInputError("denominator must be a power of p")
    # n's digit d_k sits at exponent k - s and maps to d_k p^(s-k-1): the
    # image is n's digit string reversed, times p^(s - digit count)
    n, reversed_n, count = scaled.numerator, 0, 0
    while n:
        n, d = divmod(n, p)
        reversed_n = reversed_n * p + d
        count += 1
    return reversed_n * Fraction(p) ** (s - count)
