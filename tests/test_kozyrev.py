"""Wavelet evaluation, materialization, analysis/synthesis, closed forms."""

import random
from fractions import Fraction

import pytest

from padic_wavelets.errors import InvalidInputError, UnsupportedCaseError
from padic_wavelets.exact import Cyc, amp_equal, conj
from padic_wavelets.functions import (
    character_amp,
    fn_equal,
    inner_product,
    integrate,
)
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    analyze,
    enumerate_m_digits,
    evaluate_at_rational,
    expansion_from_json,
    expansion_to_json,
    m_value,
    materialize,
    synthesize,
)

from oracles import (
    closed_form_label_translated,
    closed_form_scaled,
    closed_form_scaled_translated,
    enumerate_indices,
    indicator_fn,
    scale_arg,
    scaled,
    subtract,
    support_measure,
    translate,
)


# -- labels ------------------------------------------------------------------


def test_index_canonicalizes_trailing_zeros():
    assert KozyrevIndex(0, (1, 0, 0)).m_digits == (1,)
    assert KozyrevIndex(0, (0, 2)).m_digits == (0, 2)
    assert KozyrevIndex(0, ()).m_depth == 0


def test_enumerate_m_digits_counts():
    for p in (2, 3, 5):
        ms = enumerate_m_digits(p, 2)
        assert len(ms) == 1 + (p - 1) + p * (p - 1)
        assert all(m == () or m[-1] != 0 for m in ms)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_mother_at_zero():
    assert evaluate_at_rational(2, KozyrevIndex(0), Fraction(0)) == 1


def test_evaluate_outside_support():
    # |xi| > p^n lands outside
    assert not evaluate_at_rational(2, KozyrevIndex(0), Fraction(1, 2))
    assert not evaluate_at_rational(2, KozyrevIndex(-1), Fraction(1))


def test_evaluate_on_unit_sphere_gives_root_of_unity():
    for p in (2, 3):
        v = evaluate_at_rational(p, KozyrevIndex(0), Fraction(1))
        assert v == character_amp(p, Fraction(1, p))


def test_evaluate_rejects_bad_labels():
    with pytest.raises(InvalidInputError):
        evaluate_at_rational(2, KozyrevIndex(0, (), 2), Fraction(0))
    with pytest.raises(InvalidInputError):
        evaluate_at_rational(3, KozyrevIndex(0, (5,), 1), Fraction(0))


def test_label_digits_match_per_digit_sums():
    for p in (2, 3, 5):
        for m in enumerate_m_digits(p, 3):
            assert m_value(KozyrevIndex(0, m), p) == sum(
                (Fraction(d, p**i) for i, d in enumerate(m, start=1)), Fraction(0))


# -- materialization --------------------------------------------------------------


def test_mother_support_measure_one():
    for p in (2, 3, 5):
        assert support_measure(materialize(p, KozyrevIndex(0))) == 1


def test_materialize_support_and_mean():
    for p in (2, 3):
        for n in (-2, 0, 1, 2):
            for m in enumerate_m_digits(p, 1):
                for j in range(1, p):
                    idx = KozyrevIndex(n, m, j)
                    fn = materialize(p, idx)
                    assert not integrate(fn)
                    assert support_measure(fn) == Fraction(p) ** n
                    assert fn.support_exponent == n + idx.m_depth
                    assert fn.resolution == 1 - n


def test_materialize_piecewise_display():
    # scaled wavelet: p^(-n/2) inside, p^(-n/2) w_p^(j x0) on the sphere
    p, n, j = 3, 2, 2
    fn = materialize(p, KozyrevIndex(n, (), j))
    mag = Cyc.half_power(p, -n)
    assert amp_equal(fn.value_at(Fraction(0)), mag)
    assert amp_equal(fn.value_at(Fraction(1, p)), mag)  # |x| = p < p^n
    for x0 in range(1, p):
        v = fn.value_at(Fraction(x0, p**n))
        assert amp_equal(v, mag * character_amp(p, Fraction(j * x0, p)))


def test_materialize_constant_on_natural_cells():
    # shifting by anything of norm <= p^(n-1) leaves the value alone
    p, n = 2, -1
    idx = KozyrevIndex(n, (1,), 1)
    fn = materialize(p, idx, extra_depth=2)
    base = materialize(p, idx)
    assert fn_equal(fn, base)


# -- analysis and synthesis ---------------------------------------------------------


def test_analyze_unit_coefficient():
    p = 2
    w = Window(-1, 1, 1)
    psi = materialize(p, KozyrevIndex(0, (), 1))
    e = analyze(psi, w)
    assert set(e.coefficients) == {KozyrevIndex(0, (), 1)}
    assert e.coefficients[KozyrevIndex(0, (), 1)] == 1


def test_analyze_zero_function():
    from padic_wavelets.functions import LocallyConstantFn

    e = analyze(LocallyConstantFn(2, 0, 1, {}), Window(-1, 1, 1))
    assert e.coefficients == {}


def test_round_trip_and_parseval():
    p = 3
    w = Window(-1, 1, 1)
    rng = random.Random(11)
    idxs = enumerate_indices(p, w)
    coeffs = {}
    for idx in rng.sample(idxs, 5):
        c = Cyc.rational(p, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        if c:
            coeffs[idx] = c
    e = WaveletExpansion(p, w, coeffs)
    f = synthesize(e)
    back = analyze(f, w)
    assert set(back.coefficients) == set(coeffs)
    for idx, c in coeffs.items():
        assert amp_equal(back.coefficients[idx], c)
    # Parseval through the Gram identity
    total = Cyc.zero(p)
    for c in coeffs.values():
        total = total + conj(c) * c
    assert amp_equal(inner_product(f, f), total)


def test_bessel_inequality_tracks_window():
    # the indicator of Z_p projects onto the n >= 1 zero-m wavelets with
    # coefficients p^(-n/2); a finite window captures the partial sum
    p = 2
    f = indicator_fn(p)
    norm2 = complex(inner_product(f, f)).real
    previous = 0.0
    for n_max in (1, 2, 3):
        e = analyze(f, Window(-1, n_max, 1))
        captured = sum(abs(complex(c)) ** 2 for c in e.coefficients.values())
        assert captured <= norm2 + 1e-12
        expected = sum(float(p) ** -n for n in range(1, n_max + 1))
        assert captured == pytest.approx(expected)
        assert captured > previous
        previous = captured


def test_round_trip_residual_is_mean_projection():
    # window n in [-1, 0] resolves everything on Z_2 at resolution 2 except
    # the mean: the round-trip residual is exactly mean * indicator
    p = 2
    w = Window(-1, 0, 1)
    from padic_wavelets.functions import LocallyConstantFn

    table = {
        Fraction(0): Cyc.rational(p, Fraction(3, 4)),
        Fraction(1): Cyc.rational(p, Fraction(-1, 2)),
        Fraction(2): Cyc.one(p),
        Fraction(3): Cyc.rational(p, Fraction(5, 4)),
    }
    f = LocallyConstantFn(p, 0, 2, table)
    rebuilt = synthesize(analyze(f, w), resolution=2)
    residual = subtract(f, rebuilt)
    mean = integrate(f)
    assert fn_equal(residual, scaled(indicator_fn(p), mean))


def test_synthesize_resolution_guard():
    e = WaveletExpansion(2, Window(-1, 1, 1), {KozyrevIndex(-1): Cyc.one(2)})
    with pytest.raises(InvalidInputError):
        synthesize(e, resolution=0)


def test_expansion_json_round_trip():
    p = 2
    w = Window(-1, 1, 1)
    e = WaveletExpansion(
        p, w,
        {KozyrevIndex(0): Cyc.one(p), KozyrevIndex(1, (1,)): Cyc.rational(p, Fraction(1, 2))},
    )
    back = expansion_from_json(expansion_to_json(e))
    assert set(back.coefficients) == set(e.coefficients)
    for i, c in e.coefficients.items():
        assert amp_equal(back.coefficients[i], c)


# -- orthonormality -----------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
def test_gram_identity_small(p):
    w = Window(-1, 1, 1)
    idxs = enumerate_indices(p, w)
    fns = {i: materialize(p, i) for i in idxs}
    for a in idxs:
        for b in idxs:
            ip = inner_product(fns[a], fns[b])
            assert isinstance(ip, Cyc)
            assert ip == (1 if a == b else 0), (a, b)


# -- closed-form case tables ----------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
def test_scaled_closed_form_matches_scale_route(p):
    for j in range(1, p):
        mother = materialize(p, KozyrevIndex(0, (), j))
        for n in range(-2, 4):
            display = closed_form_scaled(p, n, j)
            route = scaled(scale_arg(mother, n), Cyc.half_power(p, -n))
            assert fn_equal(display, route)
            assert fn_equal(display, materialize(p, KozyrevIndex(n, (), j)))


@pytest.mark.parametrize("p", (2, 3))
def test_label_translated_closed_form(p):
    # translate-then-scale: the label-m wavelet at scale n
    for j in range(1, p):
        for m0 in range(1, p):
            for n in (-1, 0, 1, 2):
                display = closed_form_label_translated(p, n, (m0,), j)
                assert fn_equal(display, materialize(p, KozyrevIndex(n, (m0,), j)))
                route = scaled(scale_arg(
                    materialize(p, KozyrevIndex(0, (m0,), j)), n
                ), Cyc.half_power(p, -n))
                assert fn_equal(display, route)


@pytest.mark.parametrize("p", (2, 3))
def test_label_translated_display_values(p):
    # depth-1 display: support on the sphere p^(n+1) with x0 = m0, value
    # p^(-n/2) w_{p^2}^(j m0) w_p^(j x1)
    n = 0
    for j in range(1, p):
        for m0 in range(1, p):
            fn = closed_form_label_translated(p, n, (m0,), j)
            for x1 in range(p):
                point = Fraction(m0, p) + x1
                expect = character_amp(p, Fraction(j * m0, p**2)) * character_amp(
                    p, Fraction(j * x1, p)
                )
                assert amp_equal(fn.value_at(point), expect)
            for x0 in range(p):
                if x0 != m0:
                    assert not fn.value_at(Fraction(x0, p) + 1) or x0 == 0
    # measure of the support does not change under translation
    assert support_measure(closed_form_label_translated(p, 0, (1,), 1)) == 1


@pytest.mark.parametrize("p", (2, 3))
def test_label_translated_deeper_m(p):
    for n in (-2, 0, 1):
        for m in ((0, 1), (1, 1)):
            display = closed_form_label_translated(p, n, m, 1)
            assert fn_equal(display, materialize(p, KozyrevIndex(n, m, 1)))


def test_xi_translation_differs_by_constant_phase():
    # translating the argument instead of the label costs w_{p^2}^(-j m0)
    for p in (2, 3):
        for j in range(1, p):
            for m0 in range(1, p):
                b = Fraction(m0, p)
                xi_route = translate(materialize(p, KozyrevIndex(0, (), j)), b)
                phase = character_amp(p, Fraction(-j) * b / p)
                label_route = closed_form_label_translated(p, 0, (m0,), j)
                assert fn_equal(xi_route, scaled(label_route, phase))


@pytest.mark.parametrize("p", (2, 3))
def test_scaled_translated_closed_form(p):
    # scale-then-translate branches: n < 0, n = 1, n >= 2
    for j in range(1, p):
        mother = materialize(p, KozyrevIndex(0, (), j))
        for m0 in range(1, p):
            b = Fraction(m0, p)
            for n in (-2, -1, 1, 2, 3):
                display = closed_form_scaled_translated(p, n, m0, j)
                route = translate(scaled(scale_arg(mother, n), Cyc.half_power(p, -n)), b)
                assert fn_equal(display, route)


def test_scaled_translated_n1_branch_values():
    # n = 1 display: p^(-1/2) w_p^(-j m0) inside the unit ball,
    # p^(-1/2) w_p^(j(x0 - m0)) on the sphere |x| = p
    p, j, m0 = 3, 1, 2
    fn = closed_form_scaled_translated(p, 1, m0, j)
    mag = Cyc.half_power(p, -1)
    assert amp_equal(fn.value_at(Fraction(0)), mag * character_amp(p, Fraction(-j * m0, p)))
    for x0 in range(1, p):
        got = fn.value_at(Fraction(x0, p))
        want = mag * character_amp(p, Fraction(j * (x0 - m0), p))
        assert amp_equal(got, want)


def test_scaled_translated_high_scale_equals_scaled():
    # for n >= 2 the translation phase chi(-j m0 p^(n-2)) is exactly 1
    for p in (2, 3):
        for n in (2, 3):
            assert fn_equal(
                closed_form_scaled_translated(p, n, 1, 1),
                closed_form_scaled(p, n, 1),
            )


def test_scaled_translated_deep_integer_digits():
    # n < 0 exposes the integer digits of the representative
    p = 2
    ints = (1, 0, 1)
    b = Fraction(1, 2) + 1 + 4
    display = closed_form_scaled_translated(p, -2, 1, 1, int_digits=ints)
    route = translate(scaled(scale_arg(materialize(p, KozyrevIndex(0)), -2), Cyc.half_power(p, 2)), b)
    assert fn_equal(display, route)


def test_scaled_translated_unsupported_branches():
    with pytest.raises(UnsupportedCaseError):
        closed_form_scaled_translated(2, 0, 1, 1)
    with pytest.raises(UnsupportedCaseError):
        closed_form_scaled_translated(2, 1, 0, 1)  # zero depth-1 digit
    with pytest.raises(UnsupportedCaseError):
        closed_form_label_translated(2, 0, (), 1)
