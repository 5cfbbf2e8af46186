"""The digit structure of Q_p that the wavelets read.

A wavelet's support test |p^n x - m|_p <= 1 and its character
chi(j p^(n-1) x) read only the base-p digits of x and its fractional part,
so this module holds no p-adic arithmetic: it converts between rationals and
digits, reads valuations, character phases in Q/Z and the Monna map.

A point of Q_p is an exact rational.  `truncate` cuts one to K base-p
digits from its valuation N, the rational

    p^N * (d0 + d1*p + d2*p^2 + ... + d_{K-1}*p^{K-1}),

with the complement digits of a negative one (15 = -1 mod 2^4 and so on)
rather than a sign flag.  All values are immutable and all operations are
pure, so they may be shared freely between threads.
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


def truncate(q: Fraction, p: int, precision: int) -> Fraction:
    """q cut to K = `precision` base-p digits from its valuation v:
    p^v * (u * w^(-1) mod p^K) for q = p^v * u / w, or 0 for q = 0.

    The unit part of the denominator is inverted modulo p^K, so negative and
    non-terminating rationals keep their complement digits.
    """
    check_prime(p)
    if precision < 1:
        raise InvalidInputError("precision must be >= 1")
    if q == 0:
        return Fraction(0)
    vn, vd = valp(q.numerator, p), valp(q.denominator, p)
    modulus = p**precision
    unit = q.numerator // p**vn * pow(q.denominator // p**vd, -1, modulus) % modulus
    return unit * Fraction(p) ** (vn - vd)


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
