"""Vladimirov derivative (spectral and kernel), ladder algebra, commutators."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padic_wavelets import exact
from padic_wavelets.errors import EnumerationCapError, UnsupportedCaseError, WindowClipError
from padic_wavelets.exact import (
    Cyc,
    amp_equal,
    is_half_integral,
    p_power_amp,
)
from padic_wavelets.functions import DEFAULT_CELL_CAP, LocallyConstantFn, fn_equal
from padic_wavelets.operators import (
    _inv_one_minus,
    Diagonal,
    LogDiagonal,
    Scalar,
    Relation,
    WeightedShift,
    check_relations,
    ell_op,
    interior_scales,
    relation_rows,
    scalar_op,
    translation_kernel_residual,
    vladimirov,
    vladimirov_kernel_apply,
)
from padic_wavelets.padic import RationalPhase, valp
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    analyze,
    materialize,
    synthesize,
)

import oracles
from oracles import (
    ScaleShift,
    Word,
    apply_operator,
    ball_reps,
    ell_word,
    j_word,
    log_limit_residual_norm,
    log_vladimirov_word,
    scalar_word,
    vladimirov_word,
)

W = Window(-4, 4, 1)


def unit(p, idx, window=W):
    return oracles.basis_vector(p, window, idx)


def ladder(step, e):
    return apply_operator(Word((ScaleShift(step),)), e)


def relations(family, p, window, alphas=()):
    return check_relations(p, window, relation_rows(family, p, alphas))


# -- spectral action -----------------------------------------------------------


def test_spectral_eigenvalue():
    p = 2
    for n in (-2, 0, 3):
        e = apply_operator(vladimirov_word(Fraction(3, 2)), unit(p, KozyrevIndex(n)))
        assert amp_equal(
            e.coefficients[KozyrevIndex(n)], p_power_amp(p, Fraction(3, 2) * (1 - n))
        )


def test_spectral_identity_at_zero_exponent():
    p = 3
    e = unit(p, KozyrevIndex(1, (2,), 2))
    out = apply_operator(vladimirov_word(0), e)
    assert out.coefficients == e.coefficients


def test_spectral_semigroup_exact():
    results = relations("semigroup", 2, W, [Fraction(1, 2), Fraction(3, 2), 1, 2])
    assert len({r.alpha for r in results}) == 16
    assert all(r.exact and r.residual == 0 for r in results)


def test_spectral_semigroup_float():
    results = relations("semigroup", 2, W, [0.3, 0.7])
    assert results and all(r.residual < 1e-12 for r in results)


def test_float_relation_that_cancels_is_not_exact():
    # with float alpha = 0.5 the sides 2^(0.5(1-n)) * 2^(0.5(1-n)) and 2^(1-n)
    # agree to the last bit at several n, so the residual is empty there;
    # the relation is still a float one
    results = relations("semigroup", 2, W, [0.5])
    assert any(r.residual == 0.0 for r in results)
    assert not any(r.exact for r in results)
    deformed = relations("deformed", 2, W, [0.5, Fraction(1, 3)])
    assert any(r.residual == 0.0 for r in deformed)
    assert not any(r.exact for r in deformed)


def test_float_relation_judged_relative_to_its_sides():
    # at n = -6 the semigroup sides are about 2^(2.7 * 7) = 4.9e5, so an
    # absolute 1e-10 is below their rounding; the scale is that size
    rows = [row for row in relation_rows("semigroup", 2, [Fraction(1), 1.7])
            if row.alpha == (Fraction(1), 1.7)]
    results = check_relations(2, Window(-6, 6, 1), rows)
    worst = max(results, key=lambda r: r.residual)
    assert not worst.exact
    assert worst.residual > 1e-10
    assert worst.scale == pytest.approx(2 ** (2.7 * 7))
    assert all(r.passed(1e-10) for r in results)
    assert all(r.scale >= 1.0 for r in results)


def test_log_vladimirov_action():
    p = 2
    logd = log_vladimirov_word()
    assert apply_operator(logd, unit(p, KozyrevIndex(1))).coefficients == {}
    out = apply_operator(logd, unit(p, KozyrevIndex(0)))
    assert out.coefficients[KozyrevIndex(0)] == 1
    out = apply_operator(logd, unit(p, KozyrevIndex(-2)))
    assert out.coefficients[KozyrevIndex(-2)] == 3


def test_log_limit_linear_decay():
    p = 2
    e = WaveletExpansion(
        p, Window(-5, 5, 0), {KozyrevIndex(n): Cyc.one(p) for n in range(-5, 5)}
    )
    r3 = log_limit_residual_norm(e, 1e-3)
    r4 = log_limit_residual_norm(e, 1e-4)
    assert 8 <= r3 / r4 <= 12


# -- ladder operators -------------------------------------------------------------


def test_ladder_and_j_actions():
    p = 3
    idx = KozyrevIndex(0, (1,), 2)
    up = ladder(+1, unit(p, idx))
    assert set(up.coefficients) == {KozyrevIndex(1, (1,), 2)}
    jplus = apply_operator(j_word(+1), unit(p, idx))
    assert amp_equal(jplus.coefficients[KozyrevIndex(1, (1,), 2)], Cyc.one(p))
    jm = apply_operator(j_word(-1), unit(p, KozyrevIndex(-1)))
    assert jm.coefficients[KozyrevIndex(-2)] == 2


def test_ell_actions():
    p = 2
    assert apply_operator(ell_word(0), unit(p, KozyrevIndex(0))).coefficients == \
        apply_operator(log_vladimirov_word(), unit(p, KozyrevIndex(0))).coefficients
    out = apply_operator(ell_word(2), unit(p, KozyrevIndex(-1)))
    assert out.coefficients == {KozyrevIndex(1): Cyc.rational(p, 2)}
    out = apply_operator(ell_word(-3), unit(p, KozyrevIndex(3)))
    assert out.coefficients[KozyrevIndex(0)] == -2


def test_window_clip_is_loud():
    p = 2
    with pytest.raises(WindowClipError) as err:
        ladder(+1, unit(p, KozyrevIndex(4)))
    assert err.value.index == KozyrevIndex(5)
    with pytest.raises(WindowClipError):
        apply_operator(ell_word(-2), unit(p, KozyrevIndex(-3)))


def test_operator_word_algebra():
    # A @ B takes B's steps, then A's at offset B.shift; lo and hi are the
    # extremes of the running shift over both
    logd = LogDiagonal()
    assert ell_op(+1) @ ell_op(0) == WeightedShift(1, ((0, logd), (0, logd)), 0, 1)
    assert ell_op(0) @ ell_op(+1) == WeightedShift(1, ((0, logd), (1, logd)), 0, 1)
    assert vladimirov(Fraction(1, 2)) == WeightedShift(0, ((0, Diagonal(Fraction(1, 2))),), 0, 0)
    assert ell_op(-2) == WeightedShift(-2, ((0, logd),), -2, 0)
    assert ell_op(0) == WeightedShift(0, ((0, logd),), 0, 0)
    assert ell_op(+1) @ ell_op(-1) == WeightedShift(0, ((0, logd), (-1, logd)), -1, 0)
    product = WeightedShift(-1, ((0, logd), (-3, logd), (-1, Scalar(3))), -3, 0)
    assert (scalar_op(3) @ ell_op(2)) @ ell_op(-3) == product
    assert scalar_op(3) @ (ell_op(2) @ ell_op(-3)) == product


def test_interior_scales():
    w = Window(-3, 3, 1)
    assert list(interior_scales(w)) == list(range(-3, 4))
    assert list(interior_scales(w, ell_op(+1))) == list(range(-3, 3))
    assert list(interior_scales(w, ell_op(2), ell_op(-2))) == list(range(-1, 2))


def test_operators_leave_m_and_j_alone():
    p = 3
    idx = KozyrevIndex(0, (2,), 2)
    for op in (vladimirov_word(Fraction(1, 2)), log_vladimirov_word(), j_word(1), ell_word(-1)):
        out = apply_operator(op, unit(p, idx))
        assert all(i.m_digits == (2,) and i.j == 2 for i in out.coefficients)


# -- weighted shifts against the oracle's words ----------------------------------------

PRODUCTION = {"D": vladimirov, "logD": lambda _: ell_op(0), "J": ell_op,
              "ell": ell_op, "scalar": scalar_op}
WORDS = {"D": vladimirov_word, "logD": lambda _: log_vladimirov_word(), "J": j_word,
         "ell": ell_word, "scalar": scalar_word}


@st.composite
def operator_recipes(draw):
    p = draw(st.sampled_from((2, 3)))
    factor = st.one_of(
        st.tuples(st.just("D"), st.sampled_from(
            (Fraction(1, 2), Fraction(1), Fraction(-3, 2), 0.3, 1.7))),
        st.tuples(st.just("logD"), st.none()),
        st.tuples(st.just("J"), st.sampled_from((-1, 1))),
        st.tuples(st.just("ell"), st.integers(-2, 2)),
        st.tuples(st.just("scalar"), st.sampled_from(
            (Fraction(-2), Fraction(1, 3), 0.7, p_power_amp(p, Fraction(1, 2))))),
    )
    recipe = draw(st.lists(factor, min_size=1, max_size=6))
    return p, recipe, draw(st.integers(0, 1))


def _compose(builders, recipe):
    return functools.reduce(operator.matmul, (builders[kind](arg) for kind, arg in recipe))


@given(operator_recipes())
def test_weighted_shift_matches_the_oracle_word(case):
    p, recipe, m_depth = case
    op, word = _compose(PRODUCTION, recipe), _compose(WORDS, recipe)
    # n = 1 is in the window, where log_p D is exactly zero
    window = Window(-5, 4, m_depth)
    interior = list(oracles._interior_basis(p, window, word))
    scales = interior_scales(window, op)
    assert list(scales) == sorted({idx.n for idx in interior})
    for idx in interior:
        c = op.weight(p, idx.n, Cyc.one(p), {})
        got = [] if c is None else [
            (KozyrevIndex(idx.n + op.shift, idx.m_digits, idx.j), repr(c))]
        out = apply_operator(word, unit(p, idx, window))
        assert got == [(i, repr(v)) for i, v in out.coefficients.items()]
    # on scales <= 0 no factor is zero, so every scale of the window outside
    # the interior (one past each end included) leaves the window midway
    window = Window(-9, 0, m_depth)
    scales = interior_scales(window, op)
    for n in range(window.n_min, window.n_max + 1):
        if n not in scales:
            with pytest.raises(WindowClipError):
                apply_operator(word, unit(p, KozyrevIndex(n, (0,) * m_depth, 1), window))


# -- commutation relations ----------------------------------------------------------


def test_sl2_residuals_zero():
    for p in (2, 3):
        results = relations("sl2", p, W)
        assert results
        assert all(r.exact and r.residual == 0 for r in results)


def test_witt_residuals_zero():
    results = relations("witt", 2, Window(-10, 10, 1))
    assert sum(r.labels for r in results) > 1000
    assert all(r.exact and r.residual == 0 for r in results)


def test_deformed_exact_and_float():
    exact = relations("deformed", 2, W, [1, 2])
    assert exact and all(r.exact and r.residual == 0 for r in exact)
    # alpha = 1/2 needs the quarter power p^(1/4) in the scalar prefactors,
    # so the deformed identity itself falls back to floats; the plain
    # commutator subrelations stay exact
    half = relations("deformed", 2, W, [Fraction(1, 2)])
    assert all(r.residual <= 1e-12 for r in half)
    assert all(
        r.exact and r.residual == 0
        for r in half
        if r.relation.startswith("commutator")
    )
    floats = relations("deformed", 2, W, [0.3])
    assert floats and all(r.residual <= 1e-12 for r in floats)


def test_relation_rejects_sides_of_different_shifts():
    # sides that land on different scales could never agree
    with pytest.raises(ValueError, match="different shifts"):
        Relation("broken", None, (ell_op(+1) @ ell_op(0), ell_op(0)), True)
    row = Relation("fine", None, (ell_op(+1) @ ell_op(0), scalar_op(2) @ ell_op(+1)), True)
    assert row.sides[0].shift == row.sides[1].shift == 1


def _residual(sides) -> float:
    return oracles._residual(None, None, None, sides, True).residual


def test_check_commutator_detects_wrong_expectation():
    p = 2
    e = unit(p, KozyrevIndex(0))
    bad = oracles._commutator(
        j_word(+1), j_word(-1), e, scalar_word(Fraction(3)) @ log_vladimirov_word())
    assert _residual(bad) > 0
    good = oracles._commutator(
        j_word(+1), j_word(-1), e, scalar_word(Fraction(2)) @ log_vladimirov_word())
    assert _residual(good) == 0


def test_check_deformed_direct():
    p = 3
    e = unit(p, KozyrevIndex(-1, (1,), 1))
    assert _residual(oracles._deformed(Fraction(1, 2), +1, e)) == 0
    assert _residual(oracles._deformed(0.3, -1, e)) <= 1e-12


# -- the per-scale relation walk against the per-label oracle -------------------------

# half-integral alphas of either sign and at least 2, whose exact rows the
# closed form proves, and floats, whose rows are walked scale by scale
ORACLE_ALPHAS = [Fraction(1, 2), Fraction(1), Fraction(-3, 2), Fraction(5, 2), Fraction(-2),
                 0.3, 1.7]
# the ordered pairs hold exact with exact, exact with float, float with
# float and float with exact; 0.3 + 0.2 is the float 0.5, which must not be
# taken for Fraction(1, 2)
SEMIGROUP_ALPHAS = [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2), 0.3, 0.2]


def _fingerprint(results):
    return [(r.relation, r.index, r.alpha, repr(r.residual), r.exact, repr(r.scale))
            for r in results]


@pytest.mark.parametrize("m_depth", [0, 1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_relations_per_scale_match_the_label_by_label_oracle(p, m_depth):
    window = Window(-1, 2, m_depth)
    # the Witt pairs with |a|, |b| <= 1
    near = {f"witt:[l{a},l{b}]" for a in (-1, 0, 1) for b in (-1, 0, 1)}
    witt = [row for row in relation_rows("witt", p) if row.name in near]
    assert len(witt) == 9
    families = [
        (relations("sl2", p, window), oracles.sl2_by_label(p, window)),
        (check_relations(p, window, witt), oracles.witt_by_label(p, window, k_range=1)),
        (relations("deformed", p, window, ORACLE_ALPHAS),
         oracles.deformed_by_label(p, window, ORACLE_ALPHAS)),
        (relations("semigroup", p, window, SEMIGROUP_ALPHAS),
         oracles.semigroup_by_label(p, window, SEMIGROUP_ALPHAS)),
    ]
    for fast, slow in families:
        assert _fingerprint(oracles.by_label(p, window, fast)) == _fingerprint(slow)
    assert all(slow for _, slow in families)


@given(p=st.sampled_from([2, 3, 5]), lo=st.integers(-5, 3), width=st.integers(0, 7),
       alphas=st.lists(st.integers(-8, 8).map(lambda k: Fraction(k, 2)),
                       min_size=1, max_size=3, unique=True))
@example(p=2, lo=-4, width=8, alphas=[Fraction(-3, 2), Fraction(5, 2), Fraction(4)])
def test_exact_rows_vanish_in_closed_form_and_at_every_scale(p, lo, width, alphas):
    # every exact row of every family vanishes in closed form, so
    # check_relations evaluates none of them scale by scale; the per-scale
    # weights agree, each residual exactly 0
    window = Window(lo, lo + width, 0)
    powers = {}
    for family in ("sl2", "witt", "deformed", "semigroup"):
        rows = [row for row in relation_rows(family, p, alphas) if row.exact]
        assert rows
        for row in rows:
            assert row.vanishes(p, powers), (row.name, row.alpha)
            for n in interior_scales(window, *row.sides):
                first, *rest = (op.weight(p, n, 1, powers) for op in row.sides)
                residual = (first or 0) - sum(c for c in rest if c is not None)
                assert residual == 0, (row.name, row.alpha, n)
        assert all(r.exact and r.residual == 0.0 for r in check_relations(p, window, rows))


def test_relations_read_the_m_depth_of_their_window():
    window = Window(-3, 3, 0)
    results = relations("sl2", 3, window)
    # m = () only: each scale holds the p - 1 labels (n, (), j)
    assert {r.labels for r in results} == {2}
    deeper = relations("sl2", 3, Window(-3, 3, 2))
    assert sum(r.labels for r in deeper) == 9 * sum(r.labels for r in results)


# -- kernel form ---------------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", (Fraction(1, 2), 1, 2))
def test_kernel_reproduces_eigenvalue_exactly(p, alpha):
    for n in (-1, 0, 1):
        for m in ((), (1,)):
            idx = KozyrevIndex(n, m, 1)
            f = materialize(p, idx)
            result = vladimirov_kernel_apply(alpha, f)
            expect = oracles.scaled(f, p_power_amp(p, Fraction(alpha) * (1 - n)))
            assert fn_equal(result, expect)


def test_kernel_single_cell_value():
    # worked example: D^1 of the mother wavelet at p = 2, cell 0
    # cell sum: (-1 - 1) * 1 * 1/2 = -1; tail: -(1/2)(1/2)/(1/2) = -1/2;
    # c_1 = (1-2)/(1-1/4) = -4/3; total 2 = eigenvalue * value
    f = materialize(2, KozyrevIndex(0))
    v = vladimirov_kernel_apply(1, f).table[Fraction(0)]
    assert v == 2


def test_kernel_constant_dominated_by_tail():
    # a function constant on its support: interior cells see only the tail
    p, alpha = 2, 1
    f = LocallyConstantFn(p, 0, 1, {r: Cyc.one(p) for r in ball_reps(p, 0, 1)})
    out = vladimirov_kernel_apply(alpha, f)
    # tail oracle: -c_alpha * sum_{k>0} (1-1/p) p^(-k alpha)
    c_alpha = (1 - p**alpha) / (1 - Fraction(p) ** (-1 - alpha))
    tail = (1 - Fraction(1, p)) * Fraction(p) ** (-alpha) / (1 - Fraction(p) ** -alpha)
    expect = -c_alpha * tail
    for rep in ball_reps(p, 0, 1):
        assert amp_equal(out.value_at(rep), Cyc.rational(p, expect))


def test_kernel_zero_function():
    f = LocallyConstantFn(2, 1, 1, {})
    assert vladimirov_kernel_apply(1, f).table == {}


def test_kernel_rejects_bad_alpha():
    f = materialize(2, KozyrevIndex(0))
    with pytest.raises(UnsupportedCaseError):
        vladimirov_kernel_apply(-1, f)
    with pytest.raises(UnsupportedCaseError):
        vladimirov_kernel_apply(0, f)
    with pytest.raises(UnsupportedCaseError):
        vladimirov_kernel_apply(1 + 1j, f)


def _random_exact_table(p, support, resolution, rng):
    table = {}
    for rep in ball_reps(p, support, resolution):
        mag = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        phase = RationalPhase(rng.randrange(p * p), p * p)
        if mag:
            table[rep] = Cyc.root_of_unity(p, phase) * mag
    return LocallyConstantFn(p, support, resolution, table)


def test_kernel_float_path_close_to_exact():
    # exactness follows from alpha and the table: a Fraction alpha runs the
    # exact sum, the equal float alpha the floating one
    fns = [
        f
        for p in (2, 3, 5)
        for f in (
            materialize(p, KozyrevIndex(0)),
            materialize(p, KozyrevIndex(-1, (1,), p - 1)),
            materialize(p, KozyrevIndex(0, (p - 1,), 1), extra_depth=1),
            _random_exact_table(p, 1, 1, random.Random(p)),
        )
    ]
    for f in fns:
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            exact = vladimirov_kernel_apply(alpha, f)
            floats = vladimirov_kernel_apply(float(alpha), f)
            assert exact.table and exact.is_exact()
            assert all(isinstance(v, complex) for v in floats.table.values())
            assert fn_equal(exact, floats, tol=1e-12)


# -- the tree sum against the pair loop it replaced -------------------------------


def _naive_kernel_apply(alpha, f, cap=DEFAULT_CELL_CAP):
    """Kernel-form D^alpha f by the Theta(N^2) sum over every pair of cells."""
    p = f.prime
    m_exp, res = f.support_exponent, f.resolution
    reps = ball_reps(p, m_exp, res, cap)
    zero = Cyc.zero(p)
    values = [f.table.get(r, zero) for r in reps]
    if is_half_integral(alpha) and f.is_exact():
        a = Fraction(alpha)
        c_alpha = (1 - p_power_amp(p, a)) * _inv_one_minus(p_power_amp(p, -1 - a))
        tail = (p_power_amp(p, -a * (m_exp + 1)) * _inv_one_minus(p_power_amp(p, -a))
                * (1 - Fraction(1, p)))
        measure = Fraction(p) ** (-res)
    else:
        a = float(alpha)
        pa = float(p)
        c_alpha = (1.0 - pa**a) / (1.0 - pa ** (-1.0 - a))
        tail = (1.0 - 1.0 / pa) * pa ** (-(m_exp + 1) * a) / (1.0 - pa**-a)
        measure = pa**-res
        values = [complex(v) for v in values]
    # cell i is i * p^(-M), so cells i != i0 differ at valuation v_p(i - i0) - M
    weights = [p_power_amp(p, (1 + a) * (t - m_exp)) for t in range(m_exp + res)]

    def row(i0):
        v0 = values[i0]
        terms = []
        for i, v in enumerate(values):
            if i == i0:
                continue
            diff = v - v0
            if not diff:
                continue
            terms.append(diff * weights[valp(i - i0, p)])
        return c_alpha * (oracles.sum_in_order(p, terms) * measure - v0 * tail)

    out = {}
    for i0, r0 in enumerate(reps):
        value = row(i0)
        if value:
            out[r0] = value
    return LocallyConstantFn(p, m_exp, res, out)


# p^(M+K) <= 243 cells for every prime
_MAX_DEPTH = {2: 7, 3: 5, 5: 3}


def _random_cells(p, support, resolution, rng, density, exact, level=2, sqrt=False):
    """A random table on the ball: each cell kept with probability
    `density`, with a random complex float or an exact value, a rational
    times a p^level-th root of unity, times p^(k/2) for a random k when
    `sqrt`."""
    table = {}
    for rep in ball_reps(p, support, resolution):
        if rng.random() >= density:
            continue
        if exact:
            mag = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if mag:
                phase = RationalPhase(rng.randrange(p**level), p**level)
                value = Cyc.root_of_unity(p, phase) * mag
                if sqrt:
                    value = value * Cyc.half_power(p, rng.choice((-1, 0, 1, 3)))
                table[rep] = value
        else:
            table[rep] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LocallyConstantFn(p, support, resolution, table)


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    support = draw(st.integers(-1, 2))
    depth = draw(st.sampled_from(range(_MAX_DEPTH[p] + 1)))
    density = draw(st.sampled_from((0.0, 0.1, 1.0)))
    exact = draw(st.booleans())
    # values up to level 2, or one level above the grid's M + K; at p = 2
    # level 3 and up holds sqrt(2) = zeta_8 + zeta_8^7, so a value with a
    # sqrt(p) part has more than one (a, b) split there, as at p = 5
    level = draw(st.sampled_from((2, depth + 1, 3 if p == 2 else 1)))
    sqrt = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = _random_cells(p, support, depth - support, rng, density, exact, level, sqrt)
    alpha = draw(st.sampled_from(
        (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), 0.3, 0.7, 1.0)))
    return f, alpha


@given(kernel_cases())
def test_kernel_tree_sum_matches_pair_loop(case):
    f, alpha = case
    got = vladimirov_kernel_apply(alpha, f)
    want = _naive_kernel_apply(alpha, f)
    if got.is_exact() and want.is_exact():
        assert list(got.table) == list(want.table)
        assert all(got.table[r] == want.table[r] for r in want.table)
    else:
        # both sums round; compare at the size of the values, as the float
        # relations of `check algebra` do
        size = max((abs(complex(v)) for v in want.table.values()), default=0.0)
        assert fn_equal(got, want, tol=1e-12 * max(1.0, size))


def _count_products(monkeypatch):
    calls = [0]
    product = Cyc.__mul__

    def counted(self, other):
        calls[0] += 1
        return product(self, other)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    return calls


def test_kernel_products_grow_linearly(monkeypatch):
    # the pair loop made 381 products per cell at N = 729, 8.9x more at
    # three times the cells; the tree sum makes O(1) per cell
    p, counts = 3, {}
    calls = _count_products(monkeypatch)
    for extra_depth in (3, 4):
        w = materialize(p, KozyrevIndex(0, (1,), 1), extra_depth=extra_depth)
        cells = p ** (w.support_exponent + w.resolution)
        calls[0] = 0
        vladimirov_kernel_apply(Fraction(1, 2), w)
        counts[cells] = calls[0]
    assert set(counts) == {243, 729}
    assert counts[729] <= (p + 1) * counts[243]
    assert counts[729] <= 8 * 729


def test_exact_kernel_normalizes_each_output_cell_once(monkeypatch):
    # the exact sum merges integer terms: one normalization per nonzero
    # output cell, and `Cyc` additions only for the constants
    p = 3
    normalize, add = exact._normalize, Cyc.__add__
    calls = {"normalize": 0, "add": 0}

    def counted_normalize(*args):
        calls["normalize"] += 1
        return normalize(*args)

    def counted_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(exact, "_normalize", counted_normalize)
    monkeypatch.setattr(Cyc, "__add__", counted_add)
    for extra_depth in (3, 4):
        w = materialize(p, KozyrevIndex(0, (1,), 1), extra_depth=extra_depth)
        depth = w.support_exponent + w.resolution
        calls.update(normalize=0, add=0)
        out = vladimirov_kernel_apply(Fraction(1, 2), w)
        assert p**depth in (243, 729)
        assert len(out.table) == len(w.table)
        assert calls["normalize"] == len(out.table)
        assert calls["add"] <= 2 * depth + 4


@pytest.mark.parametrize("p, extra_depth", ((3, 4), (2, 8)))
@pytest.mark.parametrize("alpha", (Fraction(1, 2), Fraction(3, 2)))
def test_kernel_equals_spectral_on_large_grids(p, extra_depth, alpha):
    # N = 729 and N = 1024 cells, beyond what the pair loop could afford
    idx = KozyrevIndex(-1, (1,), 1)
    w = materialize(p, idx, extra_depth=extra_depth)
    assert p ** (w.support_exponent + w.resolution) == {3: 729, 2: 1024}[p]
    result = vladimirov_kernel_apply(alpha, w)
    assert result.is_exact() and list(result.table) == list(w.table)
    eigenvalue = p_power_amp(p, alpha * (1 - idx.n))
    assert all(result.table[r] == v * eigenvalue for r, v in w.table.items())


@pytest.mark.parametrize("p, m, k", ((2, 3, 3), (3, 2, 2), (3, 2, 3), (5, 1, 2)))
def test_synthesized_spectral_derivative_equals_the_kernel(p, m, k):
    # the basis route to D^(1/2) f: analyze a dense mean-zero exact f over
    # the complete window, scale each coefficient, synthesize at f's cells
    rng = random.Random(p * 100 + m * 10 + k)
    reps = ball_reps(p, m, k)
    values = [Cyc.rational(p, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
              * Cyc.root_of_unity(p, RationalPhase(rng.randrange(p * p), p * p))
              for _ in reps[1:]]
    values.insert(0, -sum(values, Cyc.zero(p)))
    assert all(values)
    f = LocallyConstantFn(p, m, k, dict(zip(reps, values)))
    alpha = Fraction(1, 2)
    e = analyze(f, Window(1 - k, m, m + k - 1))
    got = synthesize(apply_operator(vladimirov_word(alpha), e), resolution=k)
    assert got.is_exact() and len(got.table) == len(reps)
    assert fn_equal(got, vladimirov_kernel_apply(alpha, f), tol=0.0)


# -- translations ----------------------------------------------------------------------


def test_translation_kernel_residual_zero():
    p = 2
    f = materialize(p, KozyrevIndex(0))
    res = translation_kernel_residual(1, f, Fraction(1, 2))
    assert res == {}


def test_translation_kernel_residual_float_random_table():
    rng = random.Random(13)
    p = 2
    table = {}
    for rep in ball_reps(p, 1, 2):
        table[rep] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    f = LocallyConstantFn(p, 1, 2, table)
    res = translation_kernel_residual(1.0, f, Fraction(1, 2))
    worst = max((abs(complex(v)) for v in res.values()), default=0.0)
    assert worst <= 1e-12


def _same_residual(got, want):
    assert list(got) == list(want)
    for r, v in want.items():
        if isinstance(v, Cyc):
            assert isinstance(got[r], Cyc) and got[r] == v
        else:
            assert repr(got[r]) == repr(v)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("exact_table", (True, False))
def test_translation_residual_matches_the_table_oracle(p, exact_table):
    # the index shift against translate + kernel + translate on whole
    # tables: shifts by 1/p and -2/p inside the ball, one that widens the
    # ball (1/p^2 on support 1), one below the resolution (p^2 at K = 2)
    # and none
    rng = random.Random(p * 10 + exact_table)
    f = _random_cells(p, 1, 2, rng, 0.6, exact_table)
    alphas = (Fraction(1, 2), Fraction(1), 0.3) if exact_table else (0.5, 1.0, 0.3)
    for shift in (Fraction(1, p), Fraction(1, p**2), Fraction(p**2), Fraction(-2, p), 0):
        for alpha in alphas:
            got = translation_kernel_residual(alpha, f, shift)
            want = oracles.translation_residual_by_tables(alpha, f, shift)
            _same_residual(got, want)
            if is_half_integral(alpha) and exact_table:
                assert got == {}


def test_translation_residual_keeps_float_rounding_cells():
    # a float table whose residual is rounding, not zero, in many cells:
    # the index route keeps each of those cells and its float bits
    f = _random_cells(5, 1, 2, random.Random(52), 0.6, False)
    for alpha in (0.5, 1.0, 0.3):
        got = translation_kernel_residual(alpha, f, Fraction(1, 5))
        want = oracles.translation_residual_by_tables(alpha, f, Fraction(1, 5))
        assert len(want) >= 19
        _same_residual(got, want)


def test_translation_residual_checks_the_widened_ball_against_the_cap():
    # 2 cells at K = 1, but a shift by 2^-19 widens the ball to 2^20 cells,
    # past the default cap of 10^6, and one by 2^-30 to 2^31
    f = LocallyConstantFn(2, 0, 1, {Fraction(0): Cyc.one(2), Fraction(1): -Cyc.one(2)})
    for shift in (Fraction(1, 2**19), Fraction(1, 2**30)):
        with pytest.raises(EnumerationCapError):
            translation_kernel_residual(1, f, shift)
    assert translation_kernel_residual(1, f, Fraction(1, 2**3)) == {}
