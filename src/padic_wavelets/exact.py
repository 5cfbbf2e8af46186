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

The Galois map sigma_u: zeta -> zeta^u, sqrt(p) -> sqrt(p), for a unit u
(`cyc_galois`), needs no normalization for the same reasons.  It multiplies
the exponents by u at the value's own level and folds a term that lands in
the top block, as a rotation does.  sigma_u maps each field Q(zeta_{p^t})
onto itself, so the level is kept.  It maps Z[zeta] onto itself, so it acts
on the canonical Z-basis by an invertible integer matrix, on the rational
and sqrt(p) parts apart, and the common factor of the coefficients is
kept.  Where sigma_u fixes sqrt(p), as it does for u = 1 mod p (mod 8 for
p = 2), it is an automorphism of Q(sqrt(p), zeta), so a nonzero value stays
nonzero.  `functions.fourier` fills all but one cell of each orbit of its
output this way: for values in Q(sqrt(p), zeta_{p^L}),
F f(u*k) = sigma_u(F f(k)) for every unit u = 1 mod p^L.

Dually, the transform of an equivariant table, g(u*k) = sigma_u(g(k)) for
every unit u = 1 mod p^L, has its values in Q(sqrt(p), zeta_{p^L}).  The
cells of one orbit of g add to each output the sigma_u images of one
value z, and the sum of sigma_u(z) over the units u = 1 mod p^L below
p^top is the trace of z from level top down to L.  On a term zeta^e at
level top that trace is p^(top-L) zeta^e when p^(top-L) divides e, and 0
otherwise, as the roots zeta^(e*u) then sum to zero.  So an output keeps
only the terms of each orbit whose exponent the filter lets through, on
the rational and sqrt(p) parts apart, and `functions.fourier` uses this
once an exact check has shown the table equivariant.

Every exact sum of the package is made of one lift and one adder.  `lift`
takes exact values to one level, the highest of theirs, over one
denominator, the least common multiple of theirs: it gives each value the
factors of its exponents and of its integer pairs, and `added_terms`
applies them as it adds the terms into one dict.  The product loop of `*`
(`_product_terms`) reads the same parts.  The general path of `+`,
`functions.term_sums`, the kernel's constants in `operators` and
`amp_sum` sum this way, and only the finished sum is normalized;
`amp_sum` adds |v|^2 as the product loop's terms, not normalized.

`Fraction` appears only at the edge: the rational constructors, `*` and `+`
with a `Rational`, and the accessors that hand coefficients out.  Mixing a
`Cyc` with a float/complex demotes the result to `complex`, and `amp_sum`
goes on in complex from its first float value; code that wants to stay
exact simply never introduces floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
        """exp(2*pi*i*phase) for a phase whose denominator is p^t or 2*p^t.

        The phase is reduced, so the root is +-zeta^e, zeta = exp(2*pi*i/p^t),
        with e prime to p when t >= 1: one basis term, or for e in the top
        block the p-1 terms it folds into (see `_canonical`), already in
        the canonical basis at the lowest level."""
        check_prime(p)
        k, d = phase.numerator, phase.denominator
        if k == 0:
            return cls.one(p)
        t = 0
        rest = d
        while rest % p == 0:
            rest //= p
            t += 1
        n = p**t
        if rest == 1:
            e, sign = k, 1
        elif rest == 2 and p != 2:
            # e(k / 2p^t) = (-1)^k * zeta^(k * (p^t+1)/2), with k odd
            e, sign = (k * ((n + 1) // 2)) % n, -1
        else:
            raise InvalidInputError(
                f"phase {k}/{d} is not a p-power root of unity for p={p}"
            )
        block = n // p
        top = n - block
        if e < top:
            return cls(p, t, {e: (sign, 0)}, _reduced=True)
        if t == 1 and p == 2:
            return cls(p, 0, {0: (-sign, 0)}, _reduced=True)
        # zeta^((p-1)*block + r) = -sum_{i<p-1} zeta^(i*block + r)
        return cls(p, t, {i: (-sign, 0) for i in range(e - top, top, block)}, _reduced=True)

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
            level, den, parts = lift(self.prime, ((self.level, self.terms, self.den),
                                                  (other.level, other.terms, other.den)))
            return Cyc(self.prime, level, added_terms(parts), den)
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
            # the denominators multiply: the factors are lifted over 1
            level, _, (x, y) = lift(p, ((self.level, self.terms, 1), (other.level, other.terms, 1)))
            return Cyc(p, level, _product_terms(p, level, x, y), self.den * other.den)
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


def lift(p: int, values, level: int = 0):
    """Exact values at one level over one denominator.

    `values` is a sequence of (level, terms, den), terms {e: (a, b)}
    meaning (a + b sqrt(p)) zeta^e / den with zeta = exp(2 pi i / p^level),
    as a `Cyc` holds them.  Returns (level, den, parts): level the highest
    of `level` and theirs, den the least common multiple of theirs, and
    for each value the part (items, shift, up) whose terms (e, (a, b)) are
    (e * shift, (a * up, b * up)) there.  No term moves here: `added_terms`
    and `_product_terms` move each one as they read it, so a long sum
    builds one dict.  A canonical value stays canonical lifted."""
    for lv, _, _ in values:
        if lv > level:
            level = lv
    den = lcm(*[d for _, _, d in values])
    return level, den, [(terms.items(), p ** (level - lv), den // d) for lv, terms, d in values]


def added_terms(parts) -> dict:
    """The sum of the parts (items, shift, up) of `lift`, or of term items
    given as (items, 1, 1): each term (e, (a, b)) of a part adds
    (a * up, b * up) at exponent e * shift.  Each part has distinct
    exponents and no zero pair; a zero pair of the sum is dropped."""
    out = {}
    get = out.get
    count = 0
    for items, shift, up in parts:
        count += 1
        if shift != 1 or up != 1:
            for e, (a, b) in items:
                e *= shift
                c = get(e)
                out[e] = (a * up, b * up) if c is None else (c[0] + a * up, c[1] + b * up)
        elif out:
            for e, (a, b) in items:
                c = get(e)
                out[e] = (a, b) if c is None else (c[0] + a, c[1] + b)
        else:
            out.update(items)
    return _strip(out) if count > 1 else out


def _product_terms(p: int, level: int, x, y) -> dict:
    """The terms, not normalized, at `level` of the product of the parts
    x and y of `lift`, each with up 1 and at most one with a shift other
    than 1: every term of x times every term of y, exponents in
    [0, p^level).  A shift of -1 conjugates: zeta^(-e) = conj(zeta^e)."""
    modulus = p**level
    (xs, sx, _), (ys, _, _) = (y, x) if y[1] != 1 else (x, y)
    terms: dict = {}
    get = terms.get
    for e1, (a, b) in xs:
        e1 *= sx
        for e2, (c, d) in ys:
            e = e1 + e2
            if e >= modulus:
                e -= modulus
            elif e < 0:
                e += modulus
            ra, rb = a * c + p * b * d, a * d + b * c
            old = get(e)
            terms[e] = (ra, rb) if old is None else (old[0] + ra, old[1] + rb)
    return terms


def amp_sum(p: int, values, abs2: bool = False):
    """The sum of `values` in their order, or with `abs2` the sum of their
    |v|^2 = conj(v) * v.

    The exact values (`Cyc` or `Rational`) before the first float are
    added as integer terms at one level over one denominator (`lift`), and
    the sum is normalized once; |v|^2 enters as the terms of the product
    loop of `*` at v's own level, not normalized.  From the first float on
    the sum goes on in complex: the exact sum so far as a complex, then
    each value, or conj(v) * v, as a complex, one at a time."""
    values = list(values)
    cut = next((i for i, v in enumerate(values) if not isinstance(v, (Cyc, Rational))),
               len(values))
    exact = [v if isinstance(v, Cyc) else Cyc.rational(p, v) for v in values[:cut]]
    if abs2:
        parts = [(v.level, _product_terms(p, v.level, (v.terms.items(), -1, 1),
                                          (v.terms.items(), 1, 1)), v.den * v.den)
                 for v in exact]
    else:
        parts = [(v.level, v.terms, v.den) for v in exact]
    level, den, parts = lift(p, parts)
    total = Cyc(p, level, added_terms(parts), den)
    if cut == len(values):
        return total
    total = complex(total)
    for v in values[cut:]:
        total += complex(conj(v) * v if abs2 else v)
    return total


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
    terms = _moved_terms(value, modulus, modulus // p**value.level,
                         shift * (modulus // p**level))
    common = gcd(modulus, *terms)
    if common > 1:
        terms = {e // common: c for e, c in terms.items()}
        while common > 1:
            common //= p
            top_level -= 1
    return Cyc(p, top_level, terms, value.den, _reduced=True)


def cyc_galois(value: Cyc, u: int) -> Cyc:
    """sigma_u(value): every p-power root zeta^e goes to zeta^(u*e) and
    sqrt(p) stays, for u prime to p, by the Galois rule of the module
    docstring.  Where the value has a sqrt(p) part and sqrt(p) lies in its
    field, sigma_u must fix sqrt(p): u = 1 mod p (mod 8 for p = 2) does."""
    if not value.level:
        return value
    modulus = value.prime**value.level
    u %= modulus
    if u == 1:
        return value
    return Cyc(value.prime, value.level, _moved_terms(value, modulus, u, 0), value.den,
               _reduced=True)


def _moved_terms(value: Cyc, modulus: int, stretch: int, shift: int) -> dict:
    """The terms at `modulus`, in the canonical basis, of the sum of
    c * zeta^(e*stretch + shift) over the terms c * zeta^e of the canonical
    `value`, where e -> e*stretch + shift (mod modulus) is one to one on
    them: a term that lands in the top block is folded into the p-1 basis
    terms below it, and no other term moves."""
    p = value.prime
    block = modulus // p
    top = modulus - block
    terms = {}
    folded = []
    for e, c in value.terms.items():
        e = (e * stretch + shift) % modulus
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
    return terms


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


@lru_cache(maxsize=1024)
def _half_power(p: int, half_exponent: int) -> Cyc:
    return Cyc.half_power(p, half_exponent)


def p_power_amp(p: int, exponent):
    """p**exponent: exact `Cyc` for half-integer exponents, float otherwise.
    An exact power is shared by every caller that asks for it: a `Cyc` is
    immutable."""
    if is_half_integral(exponent):
        return _half_power(p, int(2 * Fraction(exponent)))
    try:
        if isinstance(exponent, complex):
            import cmath
            import math

            return cmath.exp(exponent * math.log(p))
        return float(p) ** float(exponent)
    except OverflowError:
        raise FloatRangeError(f"float power {p}^{exponent} lies beyond the float range") from None
