"""Exact complex amplitudes over a fixed prime p.

Every exact value arising here is a rational combination of p-power roots of
unity, possibly scaled by half-integer powers of p.  The class `Cyc` stores
such a number as a sparse map of integer pairs over one shared denominator

    exponent e  ->  (a, b)   meaning   (a + b*sqrt(p)) * zeta^e / den,

where zeta = exp(2*pi*i / p^level), a and b are ints, and den > 0 has no
factor common to all of them.  Exponents are kept in the canonical basis of
the p^level-th cyclotomic field (the residues whose top base-p digit is not
p-1), so sums like 1 + zeta_p + ... + zeta_p^(p-1) reduce to 0 structurally.
Where sqrt(p) itself lies in that field (p = 2 at level >= 3, p = 1 mod 4 at
level >= 1) the split into a and b is not unique; there the zero test also
replaces sqrt(p) by its Gauss sum, so `not value` and `==` stay exact.

A value at level 0 is one pair c + d*sqrt(p), a real number in Q(sqrt p).
Multiplying by it maps each term (a, b) of the other factor to
(ac + p*bd, ad + bc) and leaves the exponents, already canonical, alone.
sqrt(p) is irrational, so no nonzero pair becomes (0, 0), and a product of
two nonzero values is nonzero, so the Gauss-sum zero test has nothing to
find: only the common factor with the denominator is divided out.  Two
level-0 values add as pairs in the same way.  Every other sum, and a product
of two values at level >= 1, lifts both to the common level and normalizes
the result.

A root of unity zeta^s times a nonzero canonical value (`cyc_rotated`) needs
no general normalization either.  The exponents move by s at the lowest
level that holds both factors; a term that lands in the top block is folded
into the p-1 basis terms below it, and no other term moves; the level then
drops by the common p-power of the exponents.  The canonical exponents are
a Z-basis of Z[zeta], on which zeta^s acts by an invertible integer matrix,
so the common factor of the coefficients, and with it the lowest terms, is
unchanged; and a root of unity times a nonzero value is nonzero, so the
Gauss-sum zero test is skipped.

`Fraction` appears only at the edge: the rational constructors, `*` and `+`
with a `Rational`, and the accessors that hand coefficients out.  Mixing a
`Cyc` with a float/complex demotes the result to `complex`; code that wants
to stay exact simply never introduces floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import sub

from .errors import FloatRangeError, InvalidInputError
from .padic import RationalPhase, check_prime


class Cyc:
    """Exact element of Q(sqrt(p), zeta_{p^level}); immutable by convention."""

    __slots__ = ("prime", "level", "terms", "den")

    def __init__(self, prime, level, terms, den=1, _reduced=False):
        """`terms` maps exponents to int pairs (a, b) over `den`; unless
        `_reduced`, they are brought to the canonical basis and lowest terms."""
        self.prime = prime
        if _reduced:
            self.level, self.terms, self.den = level, terms, den
            return
        self.level, terms = _normalize(prime, level, terms)
        self.terms, self.den = _lowest(terms, den) if terms else ({}, 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Cyc":
        return cls(check_prime(p), 0, {}, 1, _reduced=True)

    @classmethod
    def rational(cls, p: int, a) -> "Cyc":
        a = Fraction(a)
        if a == 0:
            return cls.zero(p)
        return cls(check_prime(p), 0, {0: (a.numerator, 0)}, a.denominator, _reduced=True)

    @classmethod
    def one(cls, p: int) -> "Cyc":
        return cls.rational(p, 1)

    @classmethod
    def quad(cls, p: int, a, b) -> "Cyc":
        a, b = Fraction(a), Fraction(b)
        if a == 0 and b == 0:
            return cls.zero(p)
        # a and b are in lowest terms, so this den shares no factor with both
        den = lcm(a.denominator, b.denominator)
        pair = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        return cls(check_prime(p), 0, {0: pair}, den, _reduced=True)

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
            return cls(p, t, {k * (p**t // d): (1, 0)})
        if rest == 2 and p != 2:
            # e(k / 2p^t) = (-1)^k * zeta^(k * (p^t+1)/2)
            n = p**t
            sign = -1 if k % 2 else 1
            return cls(p, t, {(k * ((n + 1) // 2)) % n: (sign, 0)})
        raise InvalidInputError(
            f"phase {k}/{d} is not a p-power root of unity for p={p}"
        )

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        """A `Cyc` is falsy exactly when it is zero, like an int, `Fraction`,
        float or complex amplitude, so `not value` tests any amplitude."""
        return bool(self.terms)

    @property
    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if self.level != 0:
            return False
        (a, b), = self.terms.values()
        return b == 0

    def rational_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational:
            raise InvalidInputError("value is not rational")
        return Fraction(self.terms[0][0], self.den)

    def single_term(self):
        """Return (coeff_a, coeff_b, phase) if the value is one basis term."""
        if not self.terms:
            return (Fraction(0), Fraction(0), RationalPhase(0))
        if len(self.terms) != 1:
            return None
        (e, (a, b)), = self.terms.items()
        return (Fraction(a, self.den), Fraction(b, self.den),
                RationalPhase(e, self.prime**self.level))

    def as_phase_multiple(self):
        """(coeff_a, coeff_b, phase) with value = (a + b sqrt p) * e(phase),
        or None when the value is a genuine sum of distinct phases.

        Covers both a single stored term and the excluded-exponent pattern:
        a root whose top base-p digit is p-1 reduces to p-1 equal-coefficient
        basis terms, which this undoes."""
        if len(self.terms) <= 1:
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
                return (Fraction(-a, self.den), Fraction(-b, self.den),
                        RationalPhase(e, p**self.level))
        return None

    def polar_exact(self):
        """(coeff_a, coeff_b, phase) with a + b*sqrt(p) >= 0, when the value
        is a magnitude times a single phase; otherwise None."""
        term = self.as_phase_multiple()
        if term is None:
            return None
        a, b, phase = term
        # the sign of a + b*sqrt(p), decided without floats: when a and b
        # have opposite signs, the larger of a^2 and p*b^2 sets it
        if (a < 0) == (b < 0):
            negative = a < 0
        else:
            negative = (a * a < self.prime * b * b) == (b < 0)
        if negative:
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
            if not (self.level or other.level):
                # two pairs in Q(sqrt p): add them and reduce; nothing to fold
                den = lcm(self.den, other.den)
                mine, theirs = den // self.den, den // other.den
                a, b = self.terms.get(0, (0, 0))
                c, d = other.terms.get(0, (0, 0))
                a, b = a * mine + c * theirs, b * mine + d * theirs
                if not (a or b):
                    return Cyc.zero(self.prime)
                return Cyc(self.prime, 0, *_lowest({0: (a, b)}, den), _reduced=True)
            level = max(self.level, other.level)
            den = lcm(self.den, other.den)
            mine, theirs = den // self.den, den // other.den
            terms = self._lifted(level)
            if mine != 1:
                terms = {e: (a * mine, b * mine) for e, (a, b) in terms.items()}
            get = terms.get
            for e, (a, b) in other._lifted(level).items():
                c = get(e)
                if c is None:
                    terms[e] = (a * theirs, b * theirs)
                else:
                    terms[e] = (c[0] + a * theirs, c[1] + b * theirs)
            return Cyc(self.prime, level, _strip(terms), den)
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
            self.den,
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
            if not (self.level and other.level):
                # c + d*sqrt(p) scales the other factor's terms: see the
                # module docstring for why nothing needs normalizing
                scalar, value = (self, other) if not self.level else (other, self)
                if not (scalar.terms and value.terms):
                    return Cyc.zero(p)
                (c, d), = scalar.terms.values()
                terms = {e: (a * c + p * b * d, a * d + b * c)
                         for e, (a, b) in value.terms.items()}
                return Cyc(p, value.level, *_lowest(terms, scalar.den * value.den),
                           _reduced=True)
            level = max(self.level, other.level)
            modulus = p**level
            xs = self._lifted(level).items()
            ys = other._lifted(level).items()
            terms: dict = {}
            get = terms.get
            for e1, (a, b) in xs:
                for e2, (c, d) in ys:
                    e = e1 + e2
                    if e >= modulus:
                        e -= modulus
                    ra, rb = a * c + p * b * d, a * d + b * c
                    old = get(e)
                    terms[e] = (ra, rb) if old is None else (old[0] + ra, old[1] + rb)
            return Cyc(p, level, terms, self.den * other.den)
        if isinstance(other, Rational):
            num, den = other.numerator, other.denominator
            if num == 0:
                return Cyc.zero(self.prime)
            # self is in lowest terms, so only num with self.den, and den
            # with the coefficients, can share a factor
            g = gcd(num, self.den)
            h = gcd(den, *chain.from_iterable(self.terms.values())) if den != 1 else 1
            num //= g
            return Cyc(
                self.prime,
                self.level,
                {e: (a // h * num, b // h * num) for e, (a, b) in self.terms.items()},
                self.den // g * (den // h),
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
            self.den,
        )

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return not (self - other)
        if isinstance(other, Rational):
            return not (self - Cyc.rational(self.prime, other))
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    __hash__ = None

    def __complex__(self) -> complex:
        import cmath

        p = self.prime
        sqrtp = p**0.5
        modulus = p**self.level
        den = self.den
        total = 0j
        try:
            # in exponent order, as `repr` lists them: one value, one float
            for e in sorted(self.terms):
                a, b = self.terms[e]
                # int / int is correctly rounded, as float(Fraction(a, den)) is
                total += (a / den + b / den * sqrtp) * cmath.exp(2j * cmath.pi * e / modulus)
            if cmath.isfinite(total):
                return total
        except OverflowError:
            pass
        raise FloatRangeError("exact value lies beyond the float range")

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        if not self.terms:
            return f"Cyc(p={self.prime}, 0)"
        parts = []
        n = self.prime**self.level
        for e in sorted(self.terms):
            a, b = (Fraction(c, self.den) for c in self.terms[e])
            coeff = f"{a}" if b == 0 else (f"{b}*sqrt{self.prime}" if a == 0 else f"({a}+{b}*sqrt{self.prime})")
            parts.append(coeff if e == 0 else f"{coeff}*z({e}/{n})")
        return f"Cyc(p={self.prime}, " + " + ".join(parts) + ")"


def _lowest(terms: dict, den: int):
    """(terms, den) of nonzero integer terms over den with their common
    factor divided out."""
    g = gcd(den, *chain.from_iterable(terms.values()))
    if g != 1:
        terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
        den //= g
    return terms, den


def _strip(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c[0] or c[1]}


def _normalize(p: int, level: int, terms: dict):
    """Reduce integer terms into the canonical cyclotomic basis, drop zeros
    and lower the level as far as possible; (level, terms) of the result."""
    level, terms = _canonical(p, level, terms)
    if terms and _gauss_zero(p, level, terms):
        return 0, {}
    return level, terms


def _canonical(p: int, level: int, terms: dict):
    # exponents that are all multiples of p^k put the value in the subfield
    # of level - k, where its canonical form is the same: fold from there
    # (at level 1 the loop below makes that one step itself)
    if level > 1:
        common = gcd(*terms)
        if not common % p:
            common = gcd(p**level, common)
            terms = {e // common: c for e, c in terms.items()}
            while common > 1:
                common //= p
                level -= 1
    while level:
        modulus = p**level
        block = modulus // p
        top = modulus - block
        out: dict = {}
        get = out.get
        for e, (a, b) in terms.items():
            e %= modulus
            if e >= top:
                # zeta^((p-1)*block + r) = -sum_{i<p-1} zeta^(i*block + r)
                for k in range(e - top, top, block):
                    c = get(k)
                    out[k] = (-a, -b) if c is None else (c[0] - a, c[1] - b)
            else:
                c = get(e)
                out[e] = (a, b) if c is None else (c[0] + a, c[1] + b)
        out = _strip(out)
        if not out:
            return 0, {}
        if any(e % p for e in out):
            return level, out
        terms = {e // p: c for e, c in out.items()}
        level -= 1
    a = b = 0
    for ca, cb in terms.values():
        a += ca
        b += cb
    return 0, ({0: (a, b)} if a or b else {})


def cyc_from_coefficients(p: int, level: int, a: list, b, num: int, den: int) -> Cyc:
    """The Cyc (sum_e a[e] zeta^e + sqrt(p) * sum_e b[e] zeta^e) * num / den
    of integer lists of length p^level; b is None when there is no sqrt(p)
    part.  The lists are left unchanged.

    One slice subtraction folds the top block, exponents (p-1)*p^(level-1)
    and up, into the canonical basis; the level is then lowered while no
    exponent is prime to p, as `_canonical` does for a term dict.  The
    lowest terms and the Gauss-sum zero test follow, as in `Cyc`."""
    parts = [a] if b is None else [a, b]
    if level:
        top = len(a) - len(a) // p
        parts = [list(map(sub, v[:top], v[top:] * (p - 1))) for v in parts]
    if not any(map(any, parts)):
        return Cyc.zero(p)
    while level and not any(any(v[i::p]) for v in parts for i in range(1, p)):
        parts = [v[::p] for v in parts]
        level -= 1
    g = gcd(den, num * gcd(*chain.from_iterable(parts)))
    if b is None:
        terms = {e: (x * num // g, 0) for e, x in enumerate(parts[0]) if x}
    else:
        terms = {e: (x * num // g, y * num // g)
                 for e, (x, y) in enumerate(zip(*parts)) if x or y}
    if _gauss_zero(p, level, terms):
        return Cyc.zero(p)
    return Cyc(p, level, terms, den // g, _reduced=True)


def cyc_rotated(value: Cyc, shift: int, level: int) -> Cyc:
    """zeta^shift * value for zeta = exp(2*pi*i / p^level) and a nonzero
    canonical `value`, by the rotation rule of the module docstring."""
    p = value.prime
    shift %= p**level
    if not shift:
        return value
    # zeta^shift lies at level - v_p(shift)
    while not shift % p:
        shift //= p
        level -= 1
    top_level = max(level, value.level)
    modulus = p**top_level
    shift *= modulus // p**level
    lift = modulus // p**value.level
    block = modulus // p
    top = modulus - block
    terms = {}
    folded = []
    for e, c in value.terms.items():
        e = (e * lift + shift) % modulus
        if e < top:
            terms[e] = c
        else:
            folded.append((e, c))
    if folded:
        get = terms.get
        for e, (a, b) in folded:
            # zeta^((p-1)*block + r) = -sum_{i<p-1} zeta^(i*block + r)
            for k in range(e - top, top, block):
                c = get(k)
                terms[k] = (-a, -b) if c is None else (c[0] - a, c[1] - b)
        terms = _strip(terms)
    common = gcd(modulus, *terms)
    if common > 1:
        terms = {e // common: c for e, c in terms.items()}
        while common > 1:
            common //= p
            top_level -= 1
    return Cyc(p, top_level, terms, value.den, _reduced=True)


def _gauss_zero(p: int, level: int, terms: dict) -> bool:
    """Whether canonical A + sqrt(p)*B is a zero that the pair split hides.

    That needs sqrt(p) in the field (p = 2 at level >= 3, p = 1 mod 4 at
    level >= 1) and both parts nonzero.  The value is then tested as A + G*B
    with G the Gauss sum that equals sqrt(p): zeta_8 + zeta_8^7 for p = 2,
    sum (k/p) zeta_p^k otherwise.  A + G*B has no sqrt(p) part, and there
    the canonical form is unique."""
    if not (level >= 3 if p == 2 else level >= 1 and p % 4 == 1):
        return False
    if not (any(a for a, _ in terms.values()) and any(b for _, b in terms.values())):
        return False
    modulus = p**level
    if p == 2:
        gauss = {modulus // 8: 1, 7 * modulus // 8: 1}
    else:
        block = modulus // p
        gauss = {k * block: 1 if pow(k, (p - 1) // 2, p) == 1 else -1 for k in range(1, p)}
    out = {e: (a, 0) for e, (a, _) in terms.items() if a}
    get = out.get
    for e, (_, b) in terms.items():
        if b:
            for g, s in gauss.items():
                k = (e + g) % modulus
                c = get(k)
                out[k] = (s * b, 0) if c is None else (c[0] + s * b, 0)
    return not _canonical(p, level, out)[1]


class CycSum:
    """Mutable accumulator for long exact sums (integration, Fourier):
    integer pairs by exponent over a running common denominator."""

    __slots__ = ("prime", "level", "den", "terms", "fallback")

    def __init__(self, p: int):
        self.prime = p
        self.level = 0
        self.den = 1
        self.terms: dict = {}
        self.fallback: complex | None = None

    def add(self, value) -> None:
        if self.fallback is not None:
            self.fallback += complex(value)
            return
        if isinstance(value, Cyc):
            self._add_terms(value.level, value.terms, value.den)
        elif isinstance(value, Rational):
            self.add(Cyc.rational(self.prime, value))
        else:
            # switch to floating mode
            current = complex(self._exact())
            self.fallback = current + complex(value)

    def add_abs2(self, value) -> None:
        """Add |value|^2 = conj(value) * value.  An exact product is added as
        its integer terms, which are brought to normal form only with the
        sum, not one product at a time."""
        if self.fallback is not None or not isinstance(value, Cyc):
            self.add(conj(value) * value)
            return
        p = self.prime
        modulus = p**value.level
        items = value.terms.items()
        terms: dict = {}
        get = terms.get
        for e1, (a, b) in items:
            for e2, (c, d) in items:
                e = (e2 - e1) % modulus
                ra, rb = a * c + p * b * d, a * d + b * c
                old = get(e)
                terms[e] = (ra, rb) if old is None else (old[0] + ra, old[1] + rb)
        self._add_terms(value.level, terms, value.den * value.den)

    def _add_terms(self, level: int, more: dict, den: int) -> None:
        """Add the integer terms `more` of level `level` over `den`."""
        terms = self.terms
        if level > self.level:
            shift = self.prime ** (level - self.level)
            terms = self.terms = {e * shift: c for e, c in terms.items()}
            self.level = level
        common = lcm(self.den, den)
        if common != self.den:
            up = common // self.den
            terms = self.terms = {e: (a * up, b * up) for e, (a, b) in terms.items()}
            self.den = common
        scale = common // den
        shift = self.prime ** (self.level - level)
        get = terms.get
        for e, (a, b) in more.items():
            key = e * shift
            c = get(key)
            if c is None:
                terms[key] = (a * scale, b * scale)
            else:
                terms[key] = (c[0] + a * scale, c[1] + b * scale)

    def _exact(self) -> Cyc:
        return Cyc(self.prime, self.level, dict(self.terms), self.den)

    def result(self):
        if self.fallback is not None:
            return self.fallback
        return self._exact()


def conj(value):
    """Complex conjugate for exact or floating amplitudes."""
    if isinstance(value, Cyc):
        return value.conj()
    return complex(value).conjugate()


def amp_equal(x, y, tol: float = 0.0) -> bool:
    if isinstance(x, Cyc) and isinstance(y, Cyc):
        return not (x - y)
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
