"""Generalized Haar wavelets, monomial expansions, the Monna correspondence."""

from fractions import Fraction

import pytest

from padic_wavelets.errors import InvalidInputError, UnsupportedCaseError
from padic_wavelets.exact import Cyc, amp_equal, conj
from padic_wavelets.haar import (
    HaarIndex,
    RealStepFn,
    haar_index_for,
    haar_step,
    monna_instances,
    monna_pushforward,
    monomial_coefficient,
    monomial_coefficient_quadrature,
    pushforward_phase,
    scaling_constant,
    step_equal,
    step_monomial_integral,
)
from padic_wavelets.padic import monna_rational
from padic_wavelets.wavelets import KozyrevIndex, Window, enumerate_m_digits, materialize

from oracles import (
    dilate_arg,
    jumps,
    verify_dilatation,
    verify_lowering,
    verify_scaling_generator,
)


def step_inner(f: RealStepFn, g: RealStepFn):
    """Hermitian <f, g> = integral of conj(f) * g, exact."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = Fraction(0)
    for i in range(len(bps) - 1):
        a, b = bps[i], bps[i + 1]
        total = total + conj(f.value_at(a)) * g.value_at(a) * (b - a)
    return total


PRIMES = (2, 3, 5)


def haar_indices(p, max_level):
    return [HaarIndex(L, t) for L in range(max_level + 1) for t in range(p**L)]


# -- evaluation ----------------------------------------------------------------


def test_mother_display_binary():
    # +1 on [0, 1/2), -1 on [1/2, 1)
    idx = HaarIndex(0, 0)
    assert haar_step(2, idx).value_at(Fraction(0)) == 1
    assert haar_step(2, idx).value_at(Fraction(1, 4)) == 1
    assert haar_step(2, idx).value_at(Fraction(1, 2)) == Fraction(-1)
    assert haar_step(2, idx).value_at(Fraction(3, 4)) == Fraction(-1)


def test_evaluate_rejects_outside_domain():
    with pytest.raises(InvalidInputError):
        haar_step(2, HaarIndex(0, 0)).value_at(Fraction(3, 2))
    with pytest.raises(InvalidInputError):
        haar_step(2, HaarIndex(0, 0)).value_at(Fraction(-1, 2))


def test_paper_convention_is_sqrtp_bigger():
    p = 3
    orth = haar_step(p, HaarIndex(1, 1, "orthonormal"))
    paper = haar_step(p, HaarIndex(1, 1, "paper"))
    assert step_equal(paper, orth.scaled(Cyc.half_power(p, 1)))
    assert step_inner(paper, paper) == p


def test_unit_norm():
    # piecewise quadrature oracle: p^L * p * p^(-L-1) = 1
    for p in PRIMES:
        for idx in haar_indices(p, 2):
            assert step_inner(haar_step(p, idx), haar_step(p, idx)) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_gram_identity(p):
    idxs = haar_indices(p, 3 if p == 2 else 2)
    steps = {i: haar_step(p, i) for i in idxs}
    for a in idxs:
        for b in idxs:
            ip = step_inner(steps[a], steps[b])
            assert amp_equal(ip, Cyc.rational(p, 1 if a == b else 0)), (a, b)


def test_bad_labels_rejected():
    with pytest.raises(InvalidInputError):
        HaarIndex(-1, 0)
    with pytest.raises(InvalidInputError):
        haar_step(2, HaarIndex(1, 2))
    with pytest.raises(InvalidInputError):
        HaarIndex(0, 0, "other")


# -- monomial coefficients --------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_closed_form_equals_quadrature(p):
    for degree in range(6):
        for idx in haar_indices(p, 3 if p == 2 else 2):
            closed = monomial_coefficient(p, degree, idx)
            quad = monomial_coefficient_quadrature(p, degree, idx)
            assert amp_equal(closed, quad), (p, degree, idx)


@pytest.mark.parametrize("p", PRIMES)
def test_degree_zero_coefficients_vanish(p):
    # root-of-unity sum oracle: sum_l conj(w^l) * const = 0
    for idx in haar_indices(p, 2):
        assert not monomial_coefficient(p, 0, idx)


def test_coefficient_magnitude_scales_across_levels():
    # prefactor p^(-(n-1/2) n') at fixed translate pattern
    p, degree = 2, 2
    n = degree + 1
    for level in range(3):
        lo = monomial_coefficient(p, degree, HaarIndex(level, 0))
        hi = monomial_coefficient(p, degree, HaarIndex(level + 1, 0))
        ratio = abs(complex(hi)) / abs(complex(lo))
        assert ratio == pytest.approx(float(p) ** -(n - 0.5))


def test_paper_convention_coefficient():
    p = 2
    orth = monomial_coefficient(p, 1, HaarIndex(1, 1, "orthonormal"))
    pap = monomial_coefficient(p, 1, HaarIndex(1, 1, "paper"))
    assert amp_equal(orth, pap * Cyc.half_power(p, 1))


def test_scaling_constant_is_mean():
    assert scaling_constant(0) == 1
    assert scaling_constant(3) == Fraction(1, 4)


def test_synthesis_from_coefficients_converges():
    # partial sums of the expansion of x - 1/2 on [0,1] approach it in L2
    p = 2
    degree = 1
    prev = None
    for max_level in (1, 3, 5):
        # residual norm^2 = |f|^2 - captured (mean removed separately)
        norm2 = Fraction(1, 3) - Fraction(1, 4)  # int x^2 - mean^2
        captured = 0.0
        for idx in haar_indices(p, max_level):
            captured += abs(complex(monomial_coefficient(p, degree, idx))) ** 2
        deficit = float(norm2) - captured
        assert deficit > -1e-12
        if prev is not None:
            assert deficit < prev
        prev = deficit
    assert prev < 1e-4


# -- derivative identities ----------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
def test_lowering_residual_exactly_zero(p):
    for degree in range(1, 6):
        for idx in haar_indices(p, 3 if p == 2 else 2):
            assert not verify_lowering(p, degree, idx)


def test_lowering_interior_wavelet_needs_no_convention():
    # support strictly inside (0,1): every jump point is interior
    p = 2
    idx = HaarIndex(2, 1)
    psi = haar_step(p, idx)
    assert psi.breakpoints[0] == 0 and psi.values[0] == Cyc.zero(p)
    assert not verify_lowering(p, 3, idx)


def test_degree_one_jump_sum_telescopes():
    # linear monomial: the jump sum telescopes to plain endpoint differences
    p = 2
    idx = HaarIndex(1, 0)
    psi = haar_step(p, idx)
    jump_sum = Cyc.zero(p)
    for x, jump in jumps(psi):
        jump_sum = jump_sum - jump * Fraction(x)
    direct = Cyc.zero(p)
    for i, v in enumerate(psi.values):
        direct = direct + v * Fraction(psi.breakpoints[i + 1] - psi.breakpoints[i])
    assert amp_equal(jump_sum, direct)


@pytest.mark.parametrize("p", (2, 3))
def test_scaling_generator_residual_zero(p):
    for degree in range(1, 5):
        for idx in haar_indices(p, 2):
            assert not verify_scaling_generator(p, degree, idx)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", (1, 2))
def test_dilatation_reports_pass(p, alpha):
    for degree in range(5):
        report = verify_dilatation(p, degree, alpha, max_level=3)
        assert report.passed, report.failures
        assert report.coefficient_checks > 0
        assert report.step_identity_checks > 0


def test_dilate_arg_stretches_and_clips():
    p = 2
    f = haar_step(p, HaarIndex(2, 0))
    g = dilate_arg(f, p, 1)
    assert step_equal(g, haar_step(p, HaarIndex(1, 0)).scaled(Cyc.half_power(p, 1)))
    clipped = dilate_arg(haar_step(p, HaarIndex(0, 0)), p, 1)
    assert clipped.value_at(Fraction(3, 4)) == 1  # only the stretched first half fits


# -- Monna pushforward ---------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
def test_pushforward_mother_is_haar_mother(p):
    assert step_equal(monna_pushforward(p, KozyrevIndex(0)), haar_step(p, HaarIndex(0, 0)))


def test_pushforward_negative_scale():
    for p in (2, 3):
        assert step_equal(
            monna_pushforward(p, KozyrevIndex(-1)), haar_step(p, HaarIndex(1, 0))
        )


@pytest.mark.parametrize("p", (2, 3))
def test_pushforward_matches_haar_up_to_representative_phase(p):
    for n in (0, -1, -2):
        for m in enumerate_m_digits(p, 2):
            idx = KozyrevIndex(n, m, 1)
            if idx.n + idx.m_depth > 0:
                continue
            push = monna_pushforward(p, idx)
            target = haar_step(p, haar_index_for(p, idx)).scaled(pushforward_phase(p, idx))
            assert step_equal(push, target), (p, n, m)


def value_at_each_breakpoint_equal(f: RealStepFn, g: RealStepFn) -> bool:
    """Equality read off `value_at` at every breakpoint of either function."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return all(amp_equal(f.value_at(b), g.value_at(b)) for b in bps[:-1])


def test_step_equal_matches_the_breakpoint_reads():
    # random pairs on the grids of 1/12 and 1/18, with values 0, 1 and 2 (a
    # zero `Cyc` among them), equal and unequal, same and different cuts
    import random

    rng = random.Random(3)
    values = (Cyc.zero(2), Cyc.one(2), Cyc.rational(2, 2))
    equal = 0
    for _ in range(400):
        fs = []
        for grid in (12, 18):
            cuts = sorted(rng.sample(range(1, grid), rng.randint(0, 2)))
            bps = (Fraction(0), *(Fraction(c, grid) for c in cuts), Fraction(1))
            fs.append(RealStepFn(bps, tuple(rng.choice(values) for _ in bps[1:])))
        f, g = fs
        assert step_equal(f, f)
        assert step_equal(f, g) == step_equal(g, f) == value_at_each_breakpoint_equal(f, g)
        equal += step_equal(f, g)
    assert 0 < equal < 400


@pytest.mark.parametrize("p", (2, 3, 5))
def test_pushforward_has_one_piece_per_support_cell_and_gap(p):
    # the p^(1 + extra_depth) support cells, and at most one zero piece
    # before, between and after them, against the image of every cell
    for idx in (KozyrevIndex(-2), KozyrevIndex(-2, (1,), 1), KozyrevIndex(-3, (0, 1), p - 1)):
        for extra_depth in (0, 1):
            push = monna_pushforward(p, idx, extra_depth)
            fn = materialize(p, idx, extra_depth)
            width = Fraction(1, p**fn.resolution)
            every = sorted((monna_rational(Fraction(i), p), fn.table.get(Fraction(i), Cyc.zero(p)))
                           for i in range(p**fn.resolution))
            full = RealStepFn(tuple(s for s, _ in every) + (Fraction(1),), tuple(v for _, v in every))
            assert step_equal(push, full) and value_at_each_breakpoint_equal(push, full)
            support = [v for v in push.values if v]
            assert len(support) == len(fn.table) == p ** (1 + extra_depth)
            assert len(push.values) <= 2 * len(support) + 1
            assert all(b - a == width for a, b, v in
                       zip(push.breakpoints, push.breakpoints[1:], push.values) if v)


def test_pushforward_cell_measure_preserved():
    p = 2
    idx = KozyrevIndex(-1, (1,), 1)
    push = monna_pushforward(p, idx)
    fn_measure = Fraction(p) ** idx.n
    nonzero = sum(
        b2 - b1
        for b1, b2, v in zip(push.breakpoints, push.breakpoints[1:], push.values)
        if v
    )
    assert nonzero == fn_measure


def test_pushforward_requires_support_in_zp():
    with pytest.raises(UnsupportedCaseError):
        monna_pushforward(2, KozyrevIndex(1))
    with pytest.raises(UnsupportedCaseError):
        monna_pushforward(2, KozyrevIndex(0, (1,), 1))


def test_pushforward_phase_trivial_for_zero_m():
    for p in (2, 3):
        assert pushforward_phase(p, KozyrevIndex(-1)) == 1
        assert pushforward_phase(p, KozyrevIndex(0, (), 1)) == 1


# -- the correspondence as one exact suite ---------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
def test_wavelet_modulus_is_exact(p):
    # |psi|^2 = p^(-n) on every cell, whatever m and j, supported in Z_p or not
    for n in (-2, -1, 0, 1, 3):
        for m in ((), (1,)):
            for j in range(1, p):
                cells = materialize(p, KozyrevIndex(n, m, j)).table.values()
                assert cells and all(v * conj(v) == Fraction(p) ** -n for v in cells)


@pytest.mark.parametrize("p", (2, 3))
def test_monna_instances_cover_the_pushforward_table(p):
    # every row of the pushforward table down to scale -2 (label, Haar
    # label, phase, maximum modulus) and the degree-2 monomial ratio across
    # levels 0 -> 1 -> 2 -> 3 is a passing instance over -3:0:3
    instances = list(monna_instances(p, Window(-3, 0, 3)))
    assert all(passed for _, _, passed in instances)
    labels = {(family, label) for family, label, _ in instances}
    for n in range(-2, 1):
        for m in enumerate_m_digits(p, -n):
            idx = KozyrevIndex(n, m, 1)
            assert {("labels", idx), ("modulus", idx), ("pushforward", idx)} <= labels
    for level in range(3):
        assert ("monomial", (2, HaarIndex(level, 0))) in labels


# -- step function plumbing -----------------------------------------------------------


def test_step_fn_validation():
    with pytest.raises(InvalidInputError):
        RealStepFn((Fraction(0), Fraction(1, 2)), (Cyc.one(2),))
    with pytest.raises(InvalidInputError):
        RealStepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (Cyc.one(2),))


def test_step_monomial_integral():
    f = haar_step(2, HaarIndex(0, 0))
    # int_0^(1/2) x dx - int_(1/2)^1 x dx = 1/8 - 3/8
    assert step_monomial_integral(f, 1) == Fraction(-1, 4)
