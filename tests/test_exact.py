"""The exact amplitude engine: p-power roots of unity with sqrt(p) adjoined."""

import cmath
import numbers
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_wavelets.errors import FloatRangeError, InvalidInputError
from padic_wavelets.exact import (
    Cyc,
    _canonical,
    amp_equal,
    amp_sum,
    conj,
    cyc_from_coefficients,
    cyc_galois,
    cyc_rotated,
    is_half_integral,
    p_power_amp,
)
from padic_wavelets.padic import RationalPhase

import oracles

PRIMES = (2, 3, 5)


@pytest.mark.parametrize("p", PRIMES)
def test_full_root_sum_vanishes(p):
    total = Cyc.zero(p)
    for k in range(p):
        total = total + Cyc.root_of_unity(p, RationalPhase(k, p))
    assert not total


@pytest.mark.parametrize("p", PRIMES)
def test_subgroup_sum_vanishes_at_depth_two(p):
    # the p-element subgroup of the p^2 roots also sums to zero
    total = Cyc.zero(p)
    for k in range(p):
        total = total + Cyc.root_of_unity(p, RationalPhase(k * p, p**2))
    assert not total


@given(
    p=st.sampled_from(PRIMES),
    k1=st.integers(0, 24),
    k2=st.integers(0, 24),
    t=st.integers(1, 2),
)
def test_multiplication_adds_phases(p, k1, k2, t):
    d = p**t
    z1 = Cyc.root_of_unity(p, RationalPhase(k1, d))
    z2 = Cyc.root_of_unity(p, RationalPhase(k2, d))
    assert z1 * z2 == Cyc.root_of_unity(p, RationalPhase(k1 + k2, d))


@given(p=st.sampled_from(PRIMES), k=st.integers(0, 24), t=st.integers(1, 2))
def test_conjugate_inverts(p, k, t):
    z = Cyc.root_of_unity(p, RationalPhase(k, p**t))
    assert z * z.conj() == 1


@given(p=st.sampled_from(PRIMES), h=st.integers(-6, 6))
def test_half_powers(p, h):
    v = Cyc.half_power(p, h)
    assert v * v == Fraction(p) ** h
    assert abs(complex(v) - p ** (h / 2)) < 1e-12


def test_minus_one_phase_odd_prime():
    assert Cyc.root_of_unity(3, RationalPhase(1, 2)) == Fraction(-1)
    z = Cyc.root_of_unity(3, RationalPhase(1, 6))
    assert abs(complex(z) - cmath.exp(2j * cmath.pi / 6)) < 1e-12


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_roots_are_built_in_their_normalized_form(p):
    # every reduced phase k/p^t and k/2p^t, t <= 3: the form built directly
    # is the one `_normalize` makes of the single term +-zeta_(p^t)^e
    for t in range(4):
        n = p**t
        for d in (n, 2 * n) if p > 2 else (n,):
            for k in range(d):
                z = Cyc.root_of_unity(p, RationalPhase(k, d))
                if d == n:
                    e, sign = k, 1
                else:
                    # e(k/2n) = e(k(n+1)/2 / n) e(k/2), e(k/2) = -1 for odd k
                    e, sign = k * (n + 1) // 2 % n, -1 if k % 2 else 1
                want = Cyc(p, t, {e: (sign, 0)})
                assert (z.level, z.terms, z.den) == (want.level, want.terms, want.den), (k, d)
                assert abs(complex(z) - cmath.exp(2j * cmath.pi * k / d)) < 1e-12


def test_foreign_root_rejected():
    with pytest.raises(InvalidInputError):
        Cyc.root_of_unity(2, RationalPhase(1, 3))


@given(
    p=st.sampled_from(PRIMES),
    coeffs=st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)), max_size=6),
)
def test_accumulator_matches_pairwise_sum(p, coeffs):
    direct = Cyc.zero(p)
    terms = []
    for k, c in coeffs:
        term = Cyc.root_of_unity(p, RationalPhase(k, p**2)) * Fraction(c)
        direct = direct + term
        terms.append(term)
    total = amp_sum(p, terms)
    assert total == direct
    assert_normal_form(total)


def test_float_contamination_demotes():
    z = Cyc.one(2) + 0.5
    assert isinstance(z, complex)
    total = amp_sum(2, [Cyc.one(2), 0.25 + 0j])
    assert isinstance(total, complex)
    assert total == 1.25
    # from the first float on the sum is complex, exact values after it too
    total = amp_sum(2, [Fraction(1, 2), 0.25, Cyc.half_power(2, 2), Fraction(1, 4)])
    assert isinstance(total, complex)
    assert total == 3.0


def test_complex_value_agrees():
    p = 5
    z = Cyc.root_of_unity(p, RationalPhase(3, 25)) * Fraction(2, 7) + Cyc.half_power(p, 1)
    expected = Fraction(2, 7) * cmath.exp(2j * cmath.pi * 3 / 25) + 5**0.5
    assert abs(complex(z) - complex(expected)) < 1e-12


@pytest.mark.parametrize("value", [
    Cyc.rational(2, 2**2000),            # the rational part alone overflows
    Cyc.quad(2, 0, 3 * 2**1022),         # finite, until it is scaled by sqrt 2
    Cyc.rational(3, -(3**700)) * Cyc.root_of_unity(3, RationalPhase(1, 3)),
])
def test_complex_beyond_the_float_range_raises(value):
    with pytest.raises(FloatRangeError, match="beyond the float range"):
        complex(value)
    assert complex(Cyc.rational(2, 2**1023)) == 2.0**1023


@pytest.mark.parametrize("p,a,b,negative", [
    (2, 3, -2, False),                     # 3 - 2 sqrt 2 = 0.17
    (2, 1, -1, True),
    (3, -2, 1, True),                      # -2 + sqrt 3 = -0.27
    (3, -1, 1, False),
    (5, 0, -1, True),
    (5, -1, 0, True),
    (2, 2**1100, -(2**1100), True),        # beyond the float range
])
def test_polar_exact_sign_is_exact(p, a, b, negative):
    ra, rb, phase = Cyc.quad(p, a, b).polar_exact()
    assert (ra, rb) == ((-a, -b) if negative else (a, b))
    assert phase == (RationalPhase(1, 2) if negative else RationalPhase(0))


def test_single_term_export():
    p = 3
    z = Cyc.root_of_unity(p, RationalPhase(2, 9)) * Fraction(5, 4)
    a, b, phase = z.single_term()
    assert (a, b) == (Fraction(5, 4), 0)
    assert phase == RationalPhase(2, 9)
    assert (z + Cyc.one(p)).single_term() is None


def test_p_power_amp_half_integer_vs_float():
    assert isinstance(p_power_amp(2, Fraction(3, 2)), Cyc)
    assert isinstance(p_power_amp(2, 0.3), float)
    assert abs(p_power_amp(2, 0.3) - 2**0.3) < 1e-15


class _Ratio:
    """A `Rational` that is not a `Fraction`: registered, not derived."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator

    def __float__(self):
        return self.numerator / self.denominator

    def __repr__(self):
        return f"_Ratio({self.numerator}, {self.denominator})"


numbers.Rational.register(_Ratio)


def _generic_half_integral(x):
    return isinstance(x, numbers.Rational) and (2 * Fraction(x)).denominator == 1


@pytest.mark.parametrize("x", [
    0, 3, -4, True, False, Fraction(1, 2), Fraction(-3, 2), Fraction(5), Fraction(-7),
    Fraction(1, 3), Fraction(-5, 4), 0.5, 2.0, -1.5, 0.3, _Ratio(3, 2), _Ratio(-1, 3),
], ids=repr)
def test_half_integral_fast_paths_match_the_generic_rule(x):
    # the int, Fraction and float shortcuts of is_half_integral and
    # p_power_amp give what the Rational rule gives: a float is never exact,
    # however close to a half-integer
    exact = _generic_half_integral(x)
    assert is_half_integral(x) is exact
    power = p_power_amp(3, x)
    if exact:
        assert isinstance(power, Cyc) and power == Cyc.half_power(3, int(2 * Fraction(x)))
    else:
        assert power == 3.0 ** float(x)


def test_conj_helper_on_floats():
    assert conj(1 + 2j) == 1 - 2j
    assert amp_equal(conj(Cyc.one(3)), Cyc.one(3))


# -- sqrt(p) inside the cyclotomic field ----------------------------------------


def root(p, k, d):
    return Cyc.root_of_unity(p, RationalPhase(k, d))


def test_sqrt_two_as_a_sum_of_eighth_roots_is_equal():
    sqrt2 = Cyc.half_power(2, 1)
    assert root(2, 1, 8) + root(2, 7, 8) == sqrt2
    # the same identity one level up, and scaled by a phase
    assert root(2, 2, 16) + root(2, 14, 16) == sqrt2
    z = root(2, 3, 32)
    assert (root(2, 1, 8) + root(2, 7, 8)) * z - sqrt2 * z == 0
    assert root(2, 1, 8) + root(2, 7, 8) != sqrt2 + 1


def test_sqrt_five_as_a_sum_of_fifth_roots_is_equal():
    assert Cyc.one(5) + 2 * (root(5, 1, 5) + root(5, 4, 5)) == Cyc.half_power(5, 1)
    assert Cyc.one(5) + 2 * (root(5, 1, 5) + root(5, 4, 5)) != Cyc.half_power(5, 1) * 2


def test_sqrt_thirteen_is_its_gauss_sum():
    p = 13
    gauss = Cyc.zero(p)
    for k in range(1, p):
        gauss = gauss + root(p, k, p) * (1 if pow(k, (p - 1) // 2, p) == 1 else -1)
    assert gauss == Cyc.half_power(p, 1)
    assert not (gauss - Cyc.half_power(p, 1))
    assert gauss * Cyc.half_power(p, 1) == p


def test_exact_zero_is_falsy():
    # `not v` is the zero test of every amplitude: for Python numbers it
    # agrees with comparing the complex value to 0, signed zero and nan included
    nan = float("nan")
    numbers = [0, 1, -3, Fraction(0), Fraction(-2, 3), 0.0, -0.0, 1e-300, nan,
               float("inf"), 0j, complex(-0.0, -0.0), complex(0.0, 1e-300),
               complex(nan, 0.0), complex(0.0, nan), 2 - 1j]
    for v in numbers:
        assert (not v) == (complex(v) == 0), v
    # a Cyc is falsy exactly when it is zero, also when the zero is only
    # seen through a Gauss sum: (zeta_8 + zeta_8^7) * sqrt 2 - 2 at p = 2
    gauss_zero = (root(2, 1, 8) + root(2, 7, 8)) * Cyc.half_power(2, 1) - 2
    assert not gauss_zero
    assert not Cyc.zero(3) and not (root(3, 1, 3) - root(3, 1, 3))
    assert Cyc.one(3) and root(2, 1, 8) and Cyc.half_power(5, 1) - 2


# -- the integer normal form ------------------------------------------------------


def values(p):
    """(Cyc, complex) pairs: rationals, roots of unity and half powers,
    combined by sums, differences and products."""
    top = 4 if p == 2 else 2  # p = 2 reaches level 4, where sqrt(2) is a root sum
    atoms = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(
            lambda q: (Cyc.rational(p, q), complex(q))),
        st.tuples(st.integers(0, p**top - 1), st.integers(1, top)).map(
            lambda kt: (root(p, kt[0], p ** kt[1]),
                        cmath.exp(2j * cmath.pi * kt[0] / p ** kt[1]))),
        st.integers(-3, 3).map(lambda h: (Cyc.half_power(p, h), p ** (h / 2))),
    )

    def combine(op, x, y):
        if op == "+":
            return (x[0] + y[0], x[1] + y[1])
        if op == "-":
            return (x[0] - y[0], x[1] - y[1])
        return (x[0] * y[0], x[1] * y[1])

    return st.recursive(
        atoms,
        lambda inner: st.builds(combine, st.sampled_from("+-*"), inner, inner),
        max_leaves=5,
    )


def assert_normal_form(v):
    p = v.prime
    assert type(v.den) is int and v.den > 0
    if not v:
        assert v.terms == {} and v.den == 1
        return
    assert gcd(v.den, *chain.from_iterable(v.terms.values())) == 1
    for e, (a, b) in v.terms.items():
        assert type(a) is int and type(b) is int and (a, b) != (0, 0)
        if v.level == 0:
            assert e == 0
        else:  # canonical basis: the top base-p digit is not p-1
            assert 0 <= e < p**v.level and e // p ** (v.level - 1) != p - 1


@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(values(p), values(p), values(p))))
def test_integer_normal_form(triple):
    (x, cx), (y, cy), (z, cz) = triple
    for v, c in ((x, cx), (y, cy), (z, cz), (x * (y + z), cx * (cy + cz))):
        assert_normal_form(v)
        assert abs(complex(v) - c) <= 1e-9 * max(1.0, abs(c))
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x
    assert_normal_form(x - x)
    assert (x - x).terms == {}
    q = x * 0 + Fraction(3, 7)
    assert type(q.rational_value()) is Fraction and q.rational_value() == Fraction(3, 7)
    term = x.single_term()
    if term is not None:
        assert type(term[0]) is Fraction and type(term[1]) is Fraction


@given(st.sampled_from(PRIMES).flatmap(lambda p: st.lists(values(p), min_size=1, max_size=4)),
       st.booleans())
@example([(Cyc.half_power(2, 1) * root(2, 1, 8) + root(2, 3, 16), 0j)] * 2, False)
def test_abs2_accumulator_matches_conj_times_value(pairs, with_float):
    # the products enter the sum unnormalized, and the sum is normalized once
    p = pairs[0][0].prime
    values = [v for v, _ in pairs]
    direct = Cyc.zero(p)
    for v in values:
        direct = direct + conj(v) * v
    if with_float:
        z = 0.5 - 0.25j
        total = amp_sum(p, values + [z], abs2=True)
        want = complex(direct) + conj(z) * z
        assert isinstance(total, complex)
        assert abs(total - want) <= 1e-12 * max(1.0, abs(want))
    else:
        total = amp_sum(p, values, abs2=True)
        assert total == direct
        assert_normal_form(total)


# -- reduction into the canonical basis -------------------------------------------


@st.composite
def term_dicts(draw):
    """(p, level, terms): exponents scaled by a common p-power, some at or
    above p^level or negative, full orbits that cancel, and sqrt(p) parts."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    level = draw(st.integers(0, 4 if p == 2 else 3))
    modulus = p**level
    unit = p ** draw(st.integers(0, level))
    pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    terms = {}
    for e, c in draw(st.lists(st.tuples(st.integers(-2 * modulus, 2 * modulus), pairs),
                              max_size=8)):
        terms[e * unit] = c
    if level:
        # zeta^r times the sum of the p-th roots of unity, which is zero
        block = modulus // p
        for r, (a, b) in draw(st.lists(st.tuples(st.integers(0, block - 1), pairs),
                                       max_size=2)):
            for i in range(p):
                e = r + i * block
                old = terms.get(e, (0, 0))
                terms[e] = (old[0] + a, old[1] + b)
    return p, level, terms


@given(term_dicts())
@example((3, 2, {9: (1, 0), -3: (0, 2)}))
@example((2, 3, {0: (1, 1), 4: (1, -1)}))
@example((5, 1, {0: (0, 0)}))
def test_canonical_matches_the_fold_by_level(case):
    p, level, terms = case
    assert _canonical(p, level, dict(terms)) == oracles.canonical_by_level(p, level, dict(terms))


@st.composite
def coefficient_lists(draw):
    """(p, level, a, b, num, den): integer lists a and b (b None or a
    list) of length p^level, both of one shape: random small entries; all
    zero; only index 0 nonzero; every nonzero index a multiple of p^k;
    only the top block nonzero; or entries of up to 100 bits."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    level = draw(st.integers(0, {2: 5, 3: 3}.get(p, 2)))
    size = p**level
    kind = draw(st.sampled_from(("random", "zero", "index 0", "multiples", "top", "big")))
    coeff = st.integers(-2**100, 2**100) if kind == "big" else st.integers(-4, 4)
    if kind == "zero":
        slots = []
    elif kind == "index 0":
        slots = [0]
    elif kind == "multiples":
        slots = range(0, size, p ** draw(st.integers(0, level)))
    elif kind == "top":
        slots = range(size - size // p if level else 0, size)
    else:
        slots = range(size)

    def one():
        v = [0] * size
        for e in slots:
            v[e] = draw(coeff)
        return v

    a = one()
    b = one() if draw(st.booleans()) else None
    return p, level, a, b, draw(st.integers(1, 6) | st.integers(1, 2**70)), draw(st.integers(1, 12))


@given(coefficient_lists())
@settings(max_examples=150)
# sqrt(5) - (1 + 2 zeta_5 + 2 zeta_5^4) and sqrt(2) - (zeta_8 + zeta_8^7):
# zeros only the Gauss-sum test finds
@example((5, 1, [-1, -2, 0, 0, -2], [1, 0, 0, 0, 0], 1, 1))
@example((2, 3, [0, -3, 0, 0, 0, 0, 0, -3], [3, 0, 0, 0, 0, 0, 0, 0], 2, 4))
# the level drops from 3 to 1 in one step (every index a multiple of 9
# after the fold), and from 2 to 0 (only index 0); the top block alone
# folds onto every basis slot below it
@example((3, 3, [0] * 9 + [5] + [0] * 8 + [-5] + [0] * 8, None, 1, 1))
@example((5, 2, [7] + [0] * 24, None, 3, 12))
@example((2, 3, [0] * 4 + [1, -2, 3, 2**90], None, 2**65, 4))
def test_cyc_from_coefficients_matches_the_term_dict(case):
    # the lists' reduction, with and without a sqrt(p) part, against the
    # general normalization of the same terms by `Cyc`
    p, level, a, b, num, den = case
    copies = (list(a), b and list(b))
    got = cyc_from_coefficients(p, level, a, b, num, den)
    want = Cyc(p, level, {e: (x * num, b[e] * num if b else 0) for e, x in enumerate(a)}, den)
    assert (a, b) == copies
    assert_normal_form(got)
    assert (got.level, got.terms, got.den) == (want.level, want.terms, want.den)
    assert repr(got) == repr(want)


# -- level-0 factors and sums ------------------------------------------------------


def cycs(p, levels):
    """Values of p drawn at a level from `levels` (their normal form may sit
    lower), zero among them; small pairs and denominators, so that products
    and sums often share a factor with the denominator."""
    pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    return levels.flatmap(lambda level: st.builds(
        lambda terms, den: Cyc(p, level, dict(terms), den),
        st.lists(st.tuples(st.integers(0, p**level - 1), pairs), max_size=4),
        st.integers(1, 12)))


@st.composite
def level_zero_cases(draw):
    """(x, y, z): x and z at level 0, y at level 0 to 4."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    x, z = draw(cycs(p, st.just(0))), draw(cycs(p, st.just(0)))
    return x, draw(cycs(p, st.integers(0, 4))), z


def quad(p, a, b, den=1):
    return Cyc(p, 0, {0: (a, b)}, den)


@given(level_zero_cases())
@settings(max_examples=150)
# the products and sums share a factor with their denominators
@example((quad(3, 2, 0, 3), Cyc(3, 1, {1: (3, 3)}, 4), quad(3, 1, 1, 2)))
@example((quad(7, 1, 1, 2), Cyc(7, 2, {1: (1, 0), 8: (0, 2)}, 6), quad(7, 1, -1, 2)))
# sqrt(2) times the eighth-root sum that equals it, and sqrt(5) times its
# Gauss sum: the sqrt(p) split is not unique in these fields
@example((quad(2, 0, 1), Cyc(2, 3, {1: (1, 0), 7: (1, 0)}), quad(2, 0, -1)))
@example((quad(5, 0, 1), Cyc(5, 1, {1: (1, 0), 2: (-1, 0), 3: (-1, 0), 4: (1, 0)}),
          quad(5, 3, 0, 2)))
# zero operands, and a sum that cancels
@example((Cyc.zero(5), Cyc(5, 2, {1: (1, 1)}), quad(5, 0, 0)))
@example((quad(3, 1, 2), Cyc.zero(3), quad(3, -1, -2)))
def test_level_zero_arithmetic_matches_the_general_route(case):
    x, y, z = case
    assert x.level == z.level == 0

    def same(got, want):
        assert_normal_form(got)
        assert (list(got.terms.items()), got.den, got.level) == \
            (list(want.terms.items()), want.den, want.level)

    same(x * y, oracles.product_by_terms(x, y))
    same(y * x, oracles.product_by_terms(y, x))
    same(x + z, oracles.sum_by_terms(x, z))
    same(x - z, oracles.sum_by_terms(x, z, -1))


# -- rotation by a root of unity ---------------------------------------------------


@st.composite
def rotation_cases(draw):
    """(value, shift, level): a nonzero value drawn at level 0 to 4, sqrt(p)
    parts among them, and zeta^shift with zeta a p^level-th root, level 0 to 5."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    value = draw(cycs(p, st.integers(0, 4)).filter(bool))
    level = draw(st.integers(0, 5))
    return value, draw(st.integers(-(p**level), 2 * p**level)), level


@given(rotation_cases())
@settings(max_examples=200)
# zeta_9 * zeta_9^2 = zeta_3: the level drops without a fold
@example((Cyc(3, 2, {1: (1, 0)}), 2, 2))
# zeta_3 * (1 + zeta_3) = zeta_3 + zeta_3^2 = -1: the fold cancels a term and
# the level drops to 0
@example((Cyc(3, 1, {0: (1, 0), 1: (1, 0)}), 1, 1))
# -i * i = 1 at p = 2: the fold lands on exponent 0 and two levels drop
@example((Cyc(2, 2, {1: (-1, 0)}), 1, 2))
# sqrt(2) parts at level 3, both terms folded; a level-0 value rotated to
# level 5; and sqrt(5) parts, where the fold lands on the other terms
@example((Cyc(2, 3, {1: (1, 1), 2: (0, 1)}, 3), 5, 3))
@example((Cyc(2, 0, {0: (3, -1)}, 2), 7, 5))
@example((Cyc(5, 1, {0: (1, 1), 3: (2, -1)}, 4), 1, 1))
# zeta_5 * (1 + sqrt 5)(zeta_5^2 + zeta_5^3): zeta_5^4 folds onto the
# term moved to zeta_5^3 and cancels it to (0, 0)
@example((Cyc(5, 1, {2: (1, 1), 3: (1, 1)}), 1, 1))
def test_rotation_matches_the_general_product(case):
    # zeta^shift * value by the rotation rule against every term of the root
    # times every term of the value, then one normalization
    value, shift, level = case
    p = value.prime
    got = cyc_rotated(value, shift, level)
    want = oracles.product_by_terms(Cyc.root_of_unity(p, RationalPhase(shift, p**level)), value)
    assert_normal_form(got)
    assert (got.terms, got.level, got.den) == (want.terms, want.level, want.den)


def galois_by_terms(value: Cyc, u: int) -> Cyc:
    """sigma_u(value) as a sum of Cyc products: each term's coefficient
    (a + b sqrt(p)) / den times the root exp(2 pi i u e / p^level)."""
    p = value.prime
    total = Cyc.zero(p)
    for e, (a, b) in value.terms.items():
        coefficient = Cyc.quad(p, Fraction(a, value.den), Fraction(b, value.den))
        total = total + coefficient * Cyc.root_of_unity(p, RationalPhase(u * e, p**value.level))
    return total


@st.composite
def galois_cases(draw):
    """(x, y, u, w): values x and y of one prime drawn at levels 0 to 4, zero
    and sqrt(p) parts among them, and two units u and w.  When x or y has a
    sqrt(p) part, u and w are 1 mod p (mod 8 for p = 2), so that sigma_u
    and sigma_w fix sqrt(p) as well as zeta -> zeta^u is defined."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    x, y = draw(cycs(p, st.integers(0, 4))), draw(cycs(p, st.integers(0, 4)))
    if any(b for v in (x, y) for _, b in v.terms.values()):
        step = 8 if p == 2 else p
        units = st.integers(-40, 40).map(lambda t: 1 + step * t)
    else:
        units = st.integers(-p**5, p**5).filter(lambda t: t % p)
    return x, y, draw(units), draw(units)


@given(galois_cases())
@settings(max_examples=200)
# at p = 3, u = 7 takes zeta_9 into the top block, to zeta_9^7 =
# -zeta_9 - zeta_9^4, and the other term onto zeta_9^28 = zeta_9
@example((Cyc(3, 2, {1: (1, 0), 4: (2, 0)}), Cyc(3, 1, {1: (1, 0)}), 7, 4))
# sqrt(2) parts at level 3 under u = 9 = 1 mod 8, and sqrt(5) parts, where
# the split into a and b is not unique, under u = 6 = 1 mod 5
@example((Cyc(2, 3, {1: (1, 1), 2: (0, 1)}, 3), Cyc(2, 2, {1: (1, -1)}), 9, -7))
@example((Cyc(5, 1, {0: (1, 1), 3: (2, -1)}, 4), Cyc(5, 2, {7: (0, 1)}), 6, 11))
# a folded term cancels a moved one to (0, 0): at p = 3, u = 7 takes
# zeta_9^4 to zeta_9 and zeta_9 to zeta_9^7 = -zeta_9 - zeta_9^4; at p = 5,
# u = 6 takes zeta_25^14 to zeta_25^9 and zeta_25^4 to zeta_25^24, which
# folds onto 4, 9, 14 and 19, sqrt(5) parts alike
@example((Cyc(3, 2, {1: (1, 0), 4: (1, 0)}), Cyc(3, 2, {2: (1, 0)}), 7, 4))
@example((Cyc(5, 2, {4: (1, 1), 14: (1, 1)}), Cyc(5, 2, {7: (0, 1)}), 6, 11))
def test_galois_matches_the_term_sum_and_is_an_automorphism(case):
    # sigma_u by the Galois rule against the sum of its terms' images, in
    # normal form at the value's own level; and sigma_u(x y) =
    # sigma_u(x) sigma_u(y), sigma_u(x + y) = sigma_u(x) + sigma_u(y),
    # sigma_u(sigma_w(x)) = sigma_(uw)(x)
    x, y, u, w = case
    for v in (x, y):
        got = cyc_galois(v, u)
        want = galois_by_terms(v, u)
        assert_normal_form(got)
        assert (got.terms, got.level, got.den) == (want.terms, want.level, want.den)
        assert got.level == v.level and bool(got) == bool(v)
    assert cyc_galois(x * y, u) == cyc_galois(x, u) * cyc_galois(y, u)
    assert cyc_galois(x + y, u) == cyc_galois(x, u) + cyc_galois(y, u)
    assert repr(cyc_galois(cyc_galois(x, w), u)) == repr(cyc_galois(x, u * w))
