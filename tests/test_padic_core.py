"""Digit arithmetic in Q_p, norms, characters, the Monna map, 'ax+b'."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_wavelets.errors import InvalidInputError, PrimeMismatchError
from padic_wavelets.padic import (
    PAdicNumber,
    RationalPhase,
    add,
    from_rational,
    monna_rational,
    mul,
    neg,
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
    assert x.norm() == 1


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


# -- norm and ultrametric ------------------------------------------------------


def test_norm_basics():
    assert PAdicNumber.zero(3).norm() == 0
    assert from_rational(2, 1, 2, 4).norm() == Fraction(1, 2)
    assert from_rational(12, 1, 2, 4).norm() == Fraction(1, 4)


@given(
    a=st.integers(-200, 200).filter(bool),
    b=st.integers(-200, 200).filter(bool),
    p=st.sampled_from(PRIMES),
)
def test_ultrametric_inequality(a, b, p):
    x = from_rational(a, 1, p, 8)
    y = from_rational(b, 1, p, 8)
    s = add(x, y)
    assert s.norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert s.norm() == max(x.norm(), y.norm())


@given(
    a=st.integers(-200, 200).filter(bool),
    b=st.integers(-200, 200).filter(bool),
    p=st.sampled_from(PRIMES),
)
def test_norm_multiplicative(a, b, p):
    x = from_rational(a, 1, p, 8)
    y = from_rational(b, 1, p, 8)
    assert mul(x, y).norm() == x.norm() * y.norm()


def test_additive_inverse_cancels():
    x = from_rational(7, 5, 3, 6)
    z = add(x, neg(x))
    assert z.is_zero
    assert not z.exact  # cancellation zero carries the precision flag
    assert z.valuation == x.valuation + x.precision


def test_inverse_times_value():
    third = from_rational(1, 3, 2, 6)
    three = from_rational(3, 1, 2, 6)
    assert mul(third, three).to_rational() == 1


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        add(from_rational(1, 1, 2, 4), from_rational(1, 1, 3, 4))


def test_precision_propagates_pessimistically():
    x = from_rational(1, 1, 2, 8)
    y = from_rational(1, 1, 2, 3)
    s = add(x, y)
    # digits are reliable only below the weaker operand's bound p^3
    assert s.valuation + s.precision == 3
    assert mul(x, y).precision == 3


# -- fractional part and characters ---------------------------------------------


def test_integer_part_has_no_fraction():
    assert from_rational(7, 1, 2, 6).fractional_part() == 0
    assert from_rational(7, 1, 2, 6).character_phase().is_zero


def test_half_fraction():
    assert from_rational(1, 2, 2, 6).fractional_part() == Fraction(1, 2)
    assert from_rational(1, 2, 2, 6).character_phase() == RationalPhase(1, 2)


def test_three_quarters_fraction():
    # digitwise oracle: 3/4 = 2^-2 * (1 + 2), digits (1, 1) at valuation -2
    x = from_rational(3, 4, 2, 6)
    assert x.valuation == -2
    assert x.digits[:2] == (1, 1)
    assert x.fractional_part() == Fraction(3, 4)


@pytest.mark.parametrize("p", PRIMES)
def test_character_homomorphism_exhaustive(p):
    # all elements with two fractional digits
    points = [from_rational(a, p**2, p, 6) for a in range(p**2)]
    for x in points:
        for y in points:
            assert x.character_phase() + y.character_phase() == add(x, y).character_phase()


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
        assert x.fractional_part() == fraction
        assert x.character_phase() == RationalPhase(fraction.numerator, fraction.denominator)
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


# -- ring laws -------------------------------------------------------------------


@given(
    a1=st.integers(1, 50), b1=st.integers(-50, 50),
    a2=st.integers(1, 50), b2=st.integers(-50, 50),
    a3=st.integers(1, 50), b3=st.integers(-50, 50),
    p=st.sampled_from(PRIMES),
)
def test_mul_associative_and_distributes_over_add(a1, b1, a2, b2, a3, b3, p):
    # the two bracketings of (a1 a2 a3, b1 + a1 b2 + a1 a2 b3), at 8 digits
    a1, b1, a2, b2, a3, b3 = (from_rational(v, 1, p, 8) for v in (a1, b1, a2, b2, a3, b3))
    left_a = mul(mul(a1, a2), a3)
    right_a = mul(a1, mul(a2, a3))
    left = add(add(b1, mul(a1, b2)), mul(mul(a1, a2), b3))
    right = add(b1, mul(a1, add(b2, mul(a2, b3))))
    # compare on the digits both sides actually carry
    span = min(left.precision, right.precision) if not (left.is_zero or right.is_zero) else 0
    assert left_a.digits == right_a.digits and left_a.valuation == right_a.valuation
    if left.is_zero or right.is_zero:
        assert left.is_zero == right.is_zero
    else:
        assert left.valuation == right.valuation
        assert left.digits[:span] == right.digits[:span]


# -- textual and JSON forms ----------------------------------------------------------


def test_str_form():
    x = from_rational(12, 1, 2, 4)
    assert str(x) == "2^2 * (1 + 1*2) ~ O(2^6)"


def test_dict_round_trip():
    x = from_rational(7, 3, 5, 5)
    data = x.to_dict()
    assert set(data) == {"prime", "valuation", "digits", "precision"}
    assert PAdicNumber.from_dict(data) == x
