"""Digits of Q_p to and from rationals, valuations, character phases and
the Monna map: the digit structure that the wavelets read."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_wavelets.errors import InvalidInputError
from padic_wavelets.padic import (
    RationalPhase,
    digits_to_int,
    frac_valp,
    monna_rational,
    rational_character_phase,
    truncate,
)

PRIMES = (2, 3, 5)


def division_digits(value: int, p: int, count: int) -> list:
    """Repeated division-by-p oracle for the expansion of a p-unit integer."""
    out = []
    for _ in range(count):
        value, d = divmod(value, p)
        out.append(d)
    return out


def truncated_digits(q: Fraction, p: int, k: int) -> tuple:
    """The valuation of truncate(q, p, k) and its k digits, read off its unit
    part by the division oracle."""
    x = truncate(q, p, k)
    v = frac_valp(x, p)
    unit = x / Fraction(p) ** v
    assert unit.denominator == 1 and 0 < unit < p**k
    return v, division_digits(unit.numerator, p, k)


# -- truncation ---------------------------------------------------------------


def test_one_is_identity():
    assert truncate(Fraction(1), 2, 4) == 1
    assert truncated_digits(Fraction(1), 2, 4) == (0, [1, 0, 0, 0])


def test_twelve_base_two():
    # 12 = 2^2 * 3; oracle: divide out 2s, then expand the unit by division
    assert truncate(Fraction(12), 2, 4) == 12
    assert truncated_digits(Fraction(12), 2, 4) == (2, division_digits(3, 2, 4)) == (2, [1, 1, 0, 0])


def test_one_third_base_two():
    # modular-inverse oracle: 3 * 11 = 33 = 1 mod 16, and 11 = 1101_2
    assert truncate(Fraction(1, 3), 2, 4) == 11
    assert truncated_digits(Fraction(1, 3), 2, 4) == (0, division_digits(11, 2, 4)) == (0, [1, 1, 0, 1])


def test_precision_below_one_rejected():
    for precision in (0, -1):
        with pytest.raises(InvalidInputError):
            truncate(Fraction(1), 2, precision)


def test_non_prime_rejected():
    with pytest.raises(InvalidInputError):
        truncate(Fraction(1), 6, 4)


@given(
    num=st.integers(-500, 500),
    den=st.integers(1, 500),
    p=st.sampled_from(PRIMES),
)
def test_round_trip_mod_precision(num, den, p):
    # the truncation agrees with num/den mod p^(valuation+K)
    k = 6
    q = Fraction(num, den)
    x = truncate(q, p, k)
    if num == 0:
        assert x == 0
        return
    assert frac_valp(x, p) == frac_valp(q, p)
    diff = x - q
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
        assert count >= frac_valp(q, p) + k


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


def test_integer_part_has_no_fraction():
    assert rational_character_phase(truncate(Fraction(7), 2, 6), 2) == RationalPhase(0)


def test_half_fraction():
    assert rational_character_phase(truncate(Fraction(1, 2), 2, 6), 2) == RationalPhase(1, 2)


def test_three_quarters_fraction():
    # digitwise oracle: 3/4 = 2^-2 * (1 + 2), digits (1, 1) at valuation -2
    v, digits = truncated_digits(Fraction(3, 4), 2, 6)
    assert v == -2
    assert digits[:2] == [1, 1]
    assert rational_character_phase(truncate(Fraction(3, 4), 2, 6), 2) == RationalPhase(3, 4)


@pytest.mark.parametrize("p", PRIMES)
def test_character_homomorphism_exhaustive(p):
    # all elements with two fractional digits
    points = [truncate(Fraction(a, p**2), p, 6) for a in range(p**2)]
    for x in points:
        for y in points:
            assert rational_character_phase(x, p) + rational_character_phase(y, p) == (
                rational_character_phase(x + y, p))


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
    """Zero, every three-digit string at valuations -4..3, and the truncated
    complement digits of negative and non-terminating rationals."""
    points = [Fraction(0)]
    for v in range(-4, 4):
        for lead in range(1, p):
            for tail in range(p**2):
                points.append((lead + tail % p * p + tail // p * p**2) * Fraction(p) ** v)
    for num in range(-30, 31):
        for den in (1, 2, 3, 4, 5, 7, 9, 25, 27):
            if num:
                points.append(truncate(Fraction(num, den), p, 5))
    return points


@pytest.mark.parametrize("p", PRIMES)
def test_digit_readers_match_per_digit_sums(p):
    # oracle: sum d * p^e over the digits d at exponents e, read off each
    # point's unit part by repeated division
    for x in sample_points(p):
        v = frac_valp(x, p) if x else 0
        unit = x / Fraction(p) ** v
        assert unit.denominator == 1 and unit < p**5
        digits = division_digits(unit.numerator, p, 5)
        terms = [(d, v + i) for i, d in enumerate(digits)]
        value = sum((Fraction(d) * Fraction(p) ** e for d, e in terms), Fraction(0))
        fraction = sum((Fraction(d) * Fraction(p) ** e for d, e in terms if e < 0), Fraction(0))
        image = sum((Fraction(d) * Fraction(p) ** (-e - 1) for d, e in terms), Fraction(0))
        assert x == value == digits_to_int(digits, p) * Fraction(p) ** v
        assert rational_character_phase(x, p) == RationalPhase(fraction.numerator, fraction.denominator)
        assert monna_rational(x, p) == image


# -- Monna map -------------------------------------------------------------------


def test_monna_zero_and_inverse_power():
    assert monna_rational(Fraction(0), 5) == 0
    for p in PRIMES:
        assert monna_rational(truncate(Fraction(1, p), p, 4), p) == 1


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
