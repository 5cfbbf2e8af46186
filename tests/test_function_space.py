"""Coset-cell tables: integration, inner products, Fourier, translations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_wavelets.errors import EnumerationCapError, PrimeMismatchError
from padic_wavelets.exact import Cyc, amp_equal
from padic_wavelets.functions import (
    LocallyConstantFn,
    amp_from_json,
    amp_to_json,
    ball_reps,
    fn_equal,
    fn_from_json,
    fn_to_json,
    fourier,
    indicator_fn,
    inner_product,
    integrate,
    inverse_fourier,
    reduce_rep,
    scale_arg,
    support_measure,
    translate,
)
from padic_wavelets.padic import RationalPhase, from_rational
from padic_wavelets.wavelets import KozyrevIndex, materialize


def random_exact_fn(p, support, resolution, rng, density=0.7) -> LocallyConstantFn:
    table = {}
    for rep in ball_reps(p, support, resolution):
        if rng.random() < density:
            v = Cyc.rational(p, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            v = v * Cyc.root_of_unity(p, RationalPhase(rng.randint(0, p**2 - 1), p**2))
            if not v.is_zero:
                table[rep] = v
    return LocallyConstantFn(p, support, resolution, table)


# -- cells ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,m,k,count", [(2, 0, 0, 1), (2, 0, 2, 4), (3, 1, 1, 9), (2, 3, -1, 4)]
)
def test_cell_counts(p, m, k, count):
    reps = ball_reps(p, m, k)
    assert len(reps) == count
    assert len(set(reps)) == count
    assert all(reduce_rep(r, p, k) == r for r in reps)
    # cells of measure p^(-K) fill the ball of measure p^M
    ones = LocallyConstantFn(p, m, k, {r: Cyc.one(p) for r in reps})
    assert integrate(ones) == Fraction(p) ** m


def test_cells_partition_ball():
    # every point of the ball lies in exactly one cell
    p, m, k = 2, 1, 2
    reps = ball_reps(p, m, k)
    for i in range(p ** (m + k + 2)):
        q = Fraction(i, p**m)
        assert sum(1 for r in reps if reduce_rep(q, p, k) == r) == 1


def test_cap_enforced():
    with pytest.raises(EnumerationCapError) as err:
        ball_reps(2, 10, 11, cap=1000)
    assert "1000" in str(err.value)


def test_reduce_rep_canonicalizes():
    assert reduce_rep(Fraction(13, 4), 2, 1) == Fraction(5, 4)
    assert reduce_rep(Fraction(13, 4), 2, 0) == Fraction(1, 4)
    assert reduce_rep(Fraction(3), 2, 1) == Fraction(1)
    # 3 lies in 2^-1 Z_2, so its coset there is the zero coset
    assert reduce_rep(Fraction(3), 2, -1) == 0


# -- integration and inner products ----------------------------------------------


def test_indicator_integrates_to_one():
    for p in (2, 3, 5):
        assert integrate(indicator_fn(p)) == Fraction(1)


def test_wavelets_have_mean_zero():
    for p in (2, 3):
        for n in (-1, 0, 2):
            for j in range(1, p):
                assert integrate(materialize(p, KozyrevIndex(n, (), j))).is_zero


def test_integrate_linear():
    rng = random.Random(1)
    f = random_exact_fn(2, 1, 2, rng)
    g = random_exact_fn(2, 1, 2, rng)
    assert integrate(f + g) == integrate(f) + integrate(g)


def test_inner_product_positive():
    rng = random.Random(2)
    f = random_exact_fn(3, 0, 2, rng)
    ip = inner_product(f, f)
    assert ip.is_rational and ip.rational_value() >= 0
    zero = LocallyConstantFn(3, 0, 2, {})
    assert inner_product(zero, zero).is_zero


def test_inner_product_mixed_resolutions():
    # pairing a coarse function against a fine one sums over the fine cells
    p = 2
    coarse = indicator_fn(p)
    fine = materialize(p, KozyrevIndex(-1))
    assert inner_product(coarse, fine).is_zero
    assert inner_product(fine, coarse).is_zero
    assert inner_product(coarse, coarse) == 1


def test_inner_product_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        inner_product(indicator_fn(2), indicator_fn(3))


def test_refinement_leaves_values_and_integrals_alone():
    rng = random.Random(3)
    f = random_exact_fn(2, 1, 1, rng)
    g = f.refine_to(f.resolution + 1)
    assert fn_equal(f, g)
    assert integrate(f) == integrate(g)
    assert inner_product(f, g) == inner_product(f, f)
    h = fourier(f)
    assert fn_equal(h, fourier(g))


def test_refining_empty_table_is_empty():
    f = LocallyConstantFn(2, 0, 0, {}).refine_to(25)
    assert f.resolution == 25 and f.table == {}


def test_float_sum_that_cancels_stores_no_cell():
    f = LocallyConstantFn(2, 0, 1, {Fraction(0): 1.5 + 0j, Fraction(1): 2j})
    g = LocallyConstantFn(2, 0, 1, {Fraction(0): -1.5 + 0j})
    assert (f + g).table == {Fraction(1): 2j}
    assert (f - f).table == {}


def test_partition_of_unity():
    # depth-1 sub-cell indicators of Z_p sum to the Z_p indicator
    p = 3
    parent = indicator_fn(p)
    total = LocallyConstantFn(p, 0, 1, {})
    for c in range(p):
        total = total + LocallyConstantFn(p, 0, 1, {Fraction(c): Cyc.one(p)})
    assert fn_equal(total, parent)


# -- translation and argument scaling ----------------------------------------------


def test_translate_by_zero_is_identity():
    f = materialize(2, KozyrevIndex(0))
    assert translate(f, Fraction(0)) is f


def test_translate_preserves_support_measure():
    for p in (2, 3):
        f = materialize(p, KozyrevIndex(0, (), 1))
        for b in (Fraction(1, p), Fraction(1 + p, p**2), Fraction(3)):
            assert support_measure(translate(f, b)) == support_measure(f)


def test_translate_accepts_padic_shift():
    f = materialize(2, KozyrevIndex(0))
    b = from_rational(1, 2, 2, 8)
    assert fn_equal(translate(f, b), translate(f, Fraction(1, 2)))


def test_scale_arg_indicator():
    # substituting p*x into the Z_p indicator stretches it to the ball p^1
    p = 2
    f = scale_arg(indicator_fn(p), 1)
    assert f.support_exponent == 1 and f.resolution == -1
    assert integrate(f) == p
    assert f.value_at(Fraction(1, 2)) == 1
    g = scale_arg(f, -1)
    assert fn_equal(g, indicator_fn(p))


def test_fourier_of_translate_is_modulation():
    from padic_wavelets.functions import character_amp

    p = 2
    rng = random.Random(4)
    f = random_exact_fn(p, 1, 2, rng)
    for b in (Fraction(1, 2), Fraction(3, 4)):
        lhs = fourier(translate(f, b))
        # the modulating character must live on a grid fine enough for b
        ft = fourier(f).refine_to(max(fourier(f).resolution, lhs.resolution))
        table = {w: character_amp(p, -w * b) * v for w, v in ft.table.items()}
        rhs = LocallyConstantFn(p, ft.support_exponent, ft.resolution, table)
        assert fn_equal(lhs, rhs)


# -- Fourier ---------------------------------------------------------------------


def test_fourier_indicator_fixed_point():
    for p in (2, 3, 5):
        f = indicator_fn(p)
        assert fn_equal(fourier(f), f)
        assert fn_equal(inverse_fourier(f), f)


def test_fourier_zero():
    z = LocallyConstantFn(3, 1, 1, {})
    assert fourier(z).table == {}


def test_float_fourier_stores_no_exact_zero():
    # the cells cancel exactly at w = 0 (every root there is exactly 1)
    f = LocallyConstantFn(2, 0, 1, {Fraction(0): 1 + 0j, Fraction(1): -1 + 0j})
    g = fourier(f)
    assert Fraction(0) not in g.table
    assert set(g.table) == {Fraction(1, 2)}
    assert abs(g.table[Fraction(1, 2)] - 1) < 1e-15


def test_fourier_swaps_exponents():
    f = LocallyConstantFn(2, 1, 2, {Fraction(0): Cyc.one(2)})
    g = fourier(f)
    assert (g.support_exponent, g.resolution) == (2, 1)


@given(
    p=st.sampled_from((2, 3)),
    shape=st.sampled_from([(0, 0), (1, 1), (0, 3), (2, 1), (1, 2)]),
    seed=st.integers(0, 10**6),
)
def test_fourier_round_trip_exact(p, shape, seed):
    m, k = shape
    f = random_exact_fn(p, m, k, random.Random(seed))
    assert fn_equal(inverse_fourier(fourier(f)), f)


@given(
    p=st.sampled_from((2, 3)),
    seed=st.integers(0, 10**6),
)
def test_plancherel(p, seed):
    rng = random.Random(seed)
    f = random_exact_fn(p, 1, 2, rng)
    g = random_exact_fn(p, 1, 2, rng)
    assert inner_product(f, g) == inner_product(fourier(f), fourier(g))


@pytest.mark.parametrize("p,density", [(2, 1.0), (3, 0.01)])
def test_plancherel_at_full_desk_scale(p, density):
    # M + K = 6; the p = 3 instance is sparse to keep the exact sums small
    rng = random.Random(17)
    f = random_exact_fn(p, 3, 3, rng, density=density)
    g = random_exact_fn(p, 3, 3, rng, density=density)
    assert f.table and g.table
    assert inner_product(f, g) == inner_product(fourier(f), fourier(g))


# -- JSON ------------------------------------------------------------------------


def test_amp_json_exact_round_trip():
    p = 3
    v = Cyc.root_of_unity(p, RationalPhase(2, 9)) * Fraction(-5, 4)
    data = amp_to_json(v)
    assert set(data) == {"mag_num", "mag_den", "phase_num", "phase_den"}
    assert amp_equal(amp_from_json(p, data), v)


def test_amp_json_exact_for_excluded_exponent_roots():
    # roots whose top base-p digit is p-1 are stored as p-1 basis terms;
    # the exporter must still see them as one magnitude times one phase
    for p, num, den in ((3, 8, 9), (3, 2, 3), (5, 4, 5), (5, 23, 25)):
        v = Cyc.root_of_unity(p, RationalPhase(num, den)) * Fraction(5, 7)
        data = amp_to_json(v)
        assert set(data) == {"mag_num", "mag_den", "phase_num", "phase_den"}
        assert amp_equal(amp_from_json(p, data), v)


def test_amp_json_falls_back_to_floats():
    p = 2
    v = Cyc.half_power(p, 1)  # sqrt(2) has no magnitude/phase record
    data = amp_to_json(v)
    assert set(data) == {"re", "im"}
    assert abs(amp_from_json(p, data) - 2**0.5) < 1e-12


def test_fn_json_round_trip():
    rng = random.Random(5)
    f = random_exact_fn(3, 1, 1, rng)
    data = fn_to_json(f)
    g = fn_from_json(data)
    assert fn_equal(f, g)
    assert g.support_exponent == f.support_exponent
    assert g.resolution == f.resolution
