"""Digits of Q_p to and from rationals, valuations, character phases and
the Monna map: the digit structure that the wavelets read."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_wavelets.errors import InvalidInputError
from padic_wavelets.padic import (
    PAdicNumber,
    RationalPhase,
    frac_valp,
    from_rational,
    monna_rational,
    rational_character_phase,
)

PRIMES = (2, 3, 5)


def division_digits(value: int, p: int, count: int) -> list:
    """Repeated division-by-p oracle for the expansion of a p-unit integer."""
    out = []
    for _ in range(count):
        value, d = divmod(value, p)
        out.append(d)
    return out


# -- construction -------------------------------------------------------------


def test_one_is_identity():
    x = from_rational(1, 1, 2, 4)
    assert x.valuation == 0
    assert x.digits == (1, 0, 0, 0)


def test_twelve_base_two():
    # 12 = 2^2 * 3; oracle: divide out 2s, then expand the unit by division
    x = from_rational(12, 1, 2, 4)
    assert x.valuation == 2
    assert list(x.digits) == division_digits(3, 2, 4) == [1, 1, 0, 0]


def test_one_third_base_two():
    # modular-inverse oracle: 3 * 11 = 33 = 1 mod 16, and 11 = 1101_2
    x = from_rational(1, 3, 2, 4)
    assert x.valuation == 0
    assert list(x.digits) == division_digits(11, 2, 4) == [1, 1, 0, 1]


def test_zero_denominator_rejected():
    with pytest.raises(InvalidInputError):
        from_rational(1, 0, 2, 4)


def test_non_prime_rejected():
    with pytest.raises(InvalidInputError):
        from_rational(1, 1, 6, 4)


@given(
    num=st.integers(-500, 500),
    den=st.integers(1, 500),
    p=st.sampled_from(PRIMES),
)
def test_round_trip_mod_precision(num, den, p):
    # re-summing the digits reproduces num/den mod p^(valuation+K)
    k = 6
    x = from_rational(num, den, p, k)
    if num == 0:
        assert x.is_zero
        return
    diff = x.to_rational() - Fraction(num, den)
    if diff != 0:
        v = diff.numerator
        d = diff.denominator
        count = 0
        while v % p == 0:
            v //= p
            count += 1
        while d % p == 0:
            d //= p
            count -= 1
        assert count >= x.valuation + k


# -- valuations and the ultrametric law ----------------------------------------
# |x|_p = p^(-frac_valp(x)), so the ultrametric inequality and the
# multiplicativity of the norm are laws of the valuation.


@given(
    a=st.integers(-200, 200).filter(bool),
    b=st.integers(-200, 200).filter(bool),
    p=st.sampled_from(PRIMES),
)
def test_ultrametric_inequality(a, b, p):
    x, y = Fraction(a, 7), Fraction(b, p**3)
    if x + y == 0:
        return
    s = frac_valp(x + y, p)
    assert s >= min(frac_valp(x, p), frac_valp(y, p))
    if frac_valp(x, p) != frac_valp(y, p):
        assert s == min(frac_valp(x, p), frac_valp(y, p))


@given(
    a=st.integers(-200, 200).filter(bool),
    b=st.integers(-200, 200).filter(bool),
    p=st.sampled_from(PRIMES),
)
def test_norm_multiplicative(a, b, p):
    x, y = Fraction(a, 7), Fraction(b, p**3)
    assert frac_valp(x * y, p) == frac_valp(x, p) + frac_valp(y, p)


# -- fractional part and characters ---------------------------------------------


def phase_of(x: PAdicNumber) -> RationalPhase:
    """The character phase {x}_p of the rational that x's digits denote."""
    return rational_character_phase(x.to_rational(), x.prime)


def test_integer_part_has_no_fraction():
    assert phase_of(from_rational(7, 1, 2, 6)) == RationalPhase(0)


def test_half_fraction():
    assert phase_of(from_rational(1, 2, 2, 6)) == RationalPhase(1, 2)


def test_three_quarters_fraction():
    # digitwise oracle: 3/4 = 2^-2 * (1 + 2), digits (1, 1) at valuation -2
    x = from_rational(3, 4, 2, 6)
    assert x.valuation == -2
    assert x.digits[:2] == (1, 1)
    assert phase_of(x) == RationalPhase(3, 4)


@pytest.mark.parametrize("p", PRIMES)
def test_character_homomorphism_exhaustive(p):
    # all elements with two fractional digits
    points = [from_rational(a, p**2, p, 6) for a in range(p**2)]
    for x in points:
        for y in points:
            assert phase_of(x) + phase_of(y) == rational_character_phase(
                x.to_rational() + y.to_rational(), p)


@given(
    a=st.integers(-300, 300),
    b=st.integers(1, 300),
    c=st.integers(-300, 300),
    d=st.integers(1, 300),
    p=st.sampled_from(PRIMES),
)
def test_rational_character_homomorphism(a, b, c, d, p):
    x, y = Fraction(a, b), Fraction(c, d)
    assert (
        rational_character_phase(x, p) + rational_character_phase(y, p)
        == rational_character_phase(x + y, p)
    )


def sample_points(p: int) -> list:
    """Zeros, every short digit string at valuations -4..3, and the
    complement digits of negative and non-terminating rationals."""
    points = [PAdicNumber.zero(p), PAdicNumber(p, -2, (), exact=False)]
    for v in range(-4, 4):
        for lead in range(1, p):
            for tail in range(p**2):
                points.append(PAdicNumber(p, v, (lead, tail % p, tail // p)))
    for num in range(-30, 31):
        for den in (1, 2, 3, 4, 5, 7, 9, 25, 27):
            if num:
                points.append(from_rational(num, den, p, 5))
    return points


@pytest.mark.parametrize("p", PRIMES)
def test_digit_readers_match_per_digit_sums(p):
    # oracle: sum d * p^e over the stored digits d at exponents e
    for x in sample_points(p):
        terms = [(d, x.valuation + i) for i, d in enumerate(x.digits)]
        value = sum((Fraction(d) * Fraction(p) ** e for d, e in terms), Fraction(0))
        fraction = sum((Fraction(d) * Fraction(p) ** e for d, e in terms if e < 0), Fraction(0))
        image = sum((Fraction(d) * Fraction(p) ** (-e - 1) for d, e in terms), Fraction(0))
        assert x.to_rational() == value
        assert phase_of(x) == RationalPhase(fraction.numerator, fraction.denominator)
        assert x.monna() == image
        assert monna_rational(value, p) == image


# -- Monna map -------------------------------------------------------------------


def test_monna_zero_and_inverse_power():
    assert PAdicNumber.zero(5).monna() == 0
    for p in PRIMES:
        assert from_rational(1, p, p, 4).monna() == 1


@pytest.mark.parametrize("p", PRIMES)
def test_monna_injective_on_coset_reps(p):
    # representatives of Q_p/Z_p with depth <= 3 map 1:1 onto 0..p^3-1
    images = set()
    for a in range(p**3):
        q = Fraction(a, p**3)
        img = monna_rational(q, p)
        assert img.denominator == 1
        images.add(img)
    assert images == {Fraction(i) for i in range(p**3)}


@pytest.mark.parametrize("p", (2, 3))
def test_monna_refinements_partition_image(p):
    # depth-1 children of a cell tile its image interval
    for depth in range(0, 3):
        for a in range(p**depth):
            parent = Fraction(a)
            start = monna_rational(parent, p) if a else Fraction(0)
            starts = sorted(
                monna_rational(parent + c * p**depth, p) if (a or c) else Fraction(0)
                for c in range(p)
            )
            width = Fraction(1, p ** (depth + 1))
            expected = sorted(start + i * width for i in range(p))
            assert starts == expected
