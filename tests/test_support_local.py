"""The support-local wavelet layer against the loops it replaced.

`materialize` enumerates only the support coset, `analyze` reads every
coefficient from class sums of the table, and `synthesize` adds each label's
p child values to their residue classes and passes the sums down to the
cells.  Each is compared here with the plain loop (the whole declared ball,
one `inner_product` per label, the fold of `+` over the materialized
wavelets), which stays as the oracle, and the work saved is pinned by call
and operation counts.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padic_wavelets import exact, functions, wavelets
from padic_wavelets.errors import EnumerationCapError, InvalidInputError
from padic_wavelets.exact import Cyc, conj
from padic_wavelets.functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    fn_equal,
    inner_product,
    reduce_rep,
)
from padic_wavelets.padic import RationalPhase
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    analyze,
    enumerate_m_digits,
    evaluate_at_rational,
    materialize,
    natural_resolution,
    natural_support_exponent,
    synthesize,
)

from oracles import add, ball_reps, enumerate_indices, scaled, sum_in_order


# -- the oracles ---------------------------------------------------------------


def ball_materialize(p, idx, extra_depth=0, cap=DEFAULT_CELL_CAP):
    """Evaluate every cell of the declared ball and drop the zeros."""
    support = natural_support_exponent(idx)
    resolution = natural_resolution(idx) + extra_depth
    table = {}
    for rep in ball_reps(p, support, resolution, cap):
        v = evaluate_at_rational(p, idx, rep)
        if v:
            table[rep] = v
    return LocallyConstantFn(p, support, resolution, table)


def sorted_fine_inner_product(f, g):
    """Pair every sorted fine cell with its coarse parent."""
    p = f.prime
    if f.resolution >= g.resolution:
        fine, coarse, conj_fine = f, g, True
    else:
        fine, coarse, conj_fine = g, f, False
    products = []
    for rep in sorted(fine.table):
        v_coarse = coarse.table.get(reduce_rep(rep, p, coarse.resolution))
        if v_coarse is None:
            continue
        v_fine = fine.table[rep]
        if conj_fine:
            products.append(conj(v_fine) * v_coarse)
        else:
            products.append(conj(v_coarse) * v_fine)
    return sum_in_order(p, products) * (Fraction(p) ** (-fine.resolution))


def label_by_label_analyze(f, window, cap=DEFAULT_CELL_CAP):
    """Pair every label's materialized table with f; keep the nonzero values."""
    p = f.prime
    coeffs = {}
    for idx in enumerate_indices(p, window):
        c = inner_product(materialize(p, idx, cap=cap), f)
        if c:
            coeffs[idx] = c
    return coeffs


def folded_synthesize(expansion, resolution=None, cap=DEFAULT_CELL_CAP):
    """Sum the scaled wavelets with `oracles.add`."""
    p = expansion.prime
    finest = 1 - expansion.window.n_min
    if resolution is None:
        resolution = finest
    support = max(
        [natural_support_exponent(i) for i in expansion.coefficients],
        default=max(0, -resolution),
    )
    total = LocallyConstantFn(p, max(support, -resolution), resolution, {})
    for idx in sorted(expansion.coefficients):
        total = add(total, scaled(materialize(p, idx, cap=cap).refine_to(resolution, cap),
                                  expansion.coefficients[idx]))
    return total


def same_table(f, g):
    """Same shape, same keys in the same order, bit-identical values."""
    assert (f.prime, f.support_exponent, f.resolution) == (
        g.prime, g.support_exponent, g.resolution)
    assert list(f.table) == list(g.table)
    assert repr(list(f.table.values())) == repr(list(g.table.values()))


def same_synthesis(got, want, expansion):
    """`synthesize` against the fold: the same shape, cells in increasing
    order, and for an exact expansion the same cells with equal values of
    the same repr.  Otherwise the sums are taken in another order, so the
    values agree within 1e-12 * max(1, ||c||), ||c|| the l2 norm of the
    coefficients, over the cells of either table, a missing cell read as 0."""
    assert (got.prime, got.support_exponent, got.resolution) == (
        want.prime, want.support_exponent, want.resolution)
    assert list(got.table) == sorted(got.table)
    coeffs = expansion.coefficients.values()
    if all(isinstance(c, Cyc) for c in coeffs):
        assert set(got.table) == set(want.table)
        for rep, v in want.table.items():
            assert got.table[rep] == v
            assert repr(got.table[rep]) == repr(v)
        return
    size = sum(abs(complex(c)) ** 2 for c in coeffs) ** 0.5
    tol = 1e-12 * max(1.0, size)
    for rep in set(got.table) | set(want.table):
        assert abs(complex(got.table.get(rep, 0j)) - complex(want.table.get(rep, 0j))) <= tol


def same_amplitude(x, y):
    assert type(x) is type(y)
    if isinstance(x, Cyc):
        assert x == y
    assert repr(x) == repr(y)


# -- materialize ---------------------------------------------------------------


def oracle_cases(p):
    """(label, extra_depth): every n in [-2, 2], j, m-depth <= 3 and
    extra_depth <= 2, the m of each depth taken in turn.  A ball of more
    than 125 cells is enumerated for one label only, at n = 0 and j = 1."""
    cases = []
    for depth in range(4):
        ms = [m for m in enumerate_m_digits(p, depth) if len(m) == depth]
        turn = 0
        for extra_depth in range(3):
            large = p ** (depth + 1 + extra_depth) > 125
            for n in range(-2, 3):
                for j in range(1, p):
                    if not large or (n, j) == (0, 1):
                        cases.append((KozyrevIndex(n, ms[turn % len(ms)], j), extra_depth))
                        turn += 1
    return cases


@pytest.mark.parametrize("p", (2, 3, 5))
def test_materialize_matches_the_ball_enumeration(p):
    for idx, extra_depth in oracle_cases(p):
        count = p ** (idx.m_depth + 1 + extra_depth)
        want = ball_materialize(p, idx, extra_depth, cap=count)
        got = materialize(p, idx, extra_depth, cap=count)
        same_table(got, want)
        assert len(got.table) == p ** (1 + extra_depth)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_materialize_cap_is_checked_on_the_declared_ball(p):
    for idx in enumerate_indices(p, Window(-2, 2, 3)):
        for extra_depth in range(3):
            count = p ** (idx.m_depth + 1 + extra_depth)
            with pytest.raises(EnumerationCapError) as want:
                ball_materialize(p, idx, extra_depth, cap=count - 1)
            with pytest.raises(EnumerationCapError) as got:
                materialize(p, idx, extra_depth, cap=count - 1)
            assert str(got.value) == str(want.value)
            assert (got.value.requested, got.value.cap) == (count, count - 1)


# -- inner_product --------------------------------------------------------------


@st.composite
def sparse_tables(draw, p):
    """A table on a random ball and resolution: empty, sparse or dense, with
    exact values, float values or a wavelet's own table."""
    if draw(st.booleans()):
        idx = KozyrevIndex(
            draw(st.integers(-2, 2)),
            tuple(draw(st.lists(st.integers(0, p - 1), max_size=3))),
            draw(st.integers(1, p - 1)),
        )
        return materialize(p, idx, draw(st.integers(0, 2)))
    m = draw(st.integers(-2, 3))
    k = draw(st.integers(-m, 4 - m))
    reps = ball_reps(p, m, k)
    picked = draw(st.lists(st.sampled_from(reps), max_size=len(reps), unique=True))
    exact = draw(st.booleans())
    table = {}
    for rep in sorted(picked):
        if exact:
            v = Cyc.rational(p, Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))))
            v = v * Cyc.root_of_unity(p, RationalPhase(draw(st.integers(0, p * p - 1)), p * p))
        else:
            v = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        table[rep] = v
    return LocallyConstantFn(p, m, k, table)


@given(data=st.data())
def test_inner_product_matches_the_sorted_fine_walk(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    f = data.draw(sparse_tables(p))
    g = data.draw(sparse_tables(p))
    same_amplitude(inner_product(f, g), sorted_fine_inner_product(f, g))
    same_amplitude(inner_product(g, f), sorted_fine_inner_product(g, f))


def test_inner_product_drops_coarse_cells_outside_the_fine_ball():
    # a wide wavelet against a dense table on a smaller ball: none of the
    # wavelet's cells meets the table, whatever their sizes
    p = 2
    f = LocallyConstantFn(p, 1, 3, {rep: Cyc.one(p) for rep in ball_reps(p, 1, 3)})
    far = materialize(p, KozyrevIndex(-1, (1, 0, 1), 1))
    assert inner_product(far, f) == sorted_fine_inner_product(far, f) == 0
    # and a table whose one cell lies far out, at a huge cell size
    wide = LocallyConstantFn(p, 10**6, 1 - 10**6, {Fraction(1, p**10**6): Cyc.one(p)})
    assert inner_product(wide, f) == sorted_fine_inner_product(wide, f) == 0


# -- synthesize -------------------------------------------------------------------


@pytest.mark.parametrize("p,m,k,exact", [(2, 2, 3, True), (2, 3, 1, False),
                                         (3, 1, 2, True), (3, 2, 1, False),
                                         (5, 1, 1, True)])
def test_synthesize_matches_the_fold_of_add(p, m, k, exact):
    rng = random.Random(p * 100 + m * 10 + k)
    table = {}
    for rep in ball_reps(p, m, k):
        if rng.random() < 0.6:
            table[rep] = (Cyc.root_of_unity(p, RationalPhase(rng.randrange(p * p), p * p))
                          * Fraction(rng.randint(1, 4), rng.randint(1, 3))
                          if exact else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    f = LocallyConstantFn(p, m, k, table)
    window = Window(1 - k, m, m + k - 1)
    e = analyze(f, window)
    assert e.coefficients
    for resolution in (None, max(k, 1 - window.n_min) + 1):
        same_synthesis(synthesize(e, resolution), folded_synthesize(e, resolution), e)


def test_synthesize_deletes_cells_that_cancel():
    # f = +1, -1 on the cells 0, 1 of Z_2 at resolution 2 and 0 on 2, 3: the
    # wavelets at n = -1 and n = 0 cancel on the last two cells
    p = 2
    f = LocallyConstantFn(p, 0, 2, {Fraction(0): Cyc.one(p), Fraction(1): -Cyc.one(p)})
    e = analyze(f, Window(-1, 0, 1))
    got = synthesize(e)
    same_synthesis(got, folded_synthesize(e), e)
    assert list(got.table) == [0, 1]
    assert got.table[Fraction(0)] == 1 and got.table[Fraction(1)] == -1


# -- work counts ------------------------------------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    calls = []
    real = wavelets.evaluate_at_rational

    def counting(p, idx, q):
        calls.append(q)
        return real(p, idx, q)

    monkeypatch.setattr(wavelets, "evaluate_at_rational", counting)
    return calls


@pytest.mark.parametrize("extra_depth", (0, 1, 2))
def test_materialize_evaluates_only_the_support(evaluations, extra_depth):
    # the ball of a p = 2, m-depth 5 label holds 2^(6 + extra_depth) cells
    materialize(2, KozyrevIndex(1, (1, 0, 1, 1, 1), 1), extra_depth)
    assert len(evaluations) == 2 ** (1 + extra_depth)


@pytest.fixture
def characters(monkeypatch):
    calls = []
    real = functions.character_amp

    def counting(p, q):
        calls.append(q)
        return real(p, q)

    monkeypatch.setattr(wavelets, "character_amp", counting)
    return calls


def test_analyze_evaluates_no_cell(evaluations, characters):
    # every coefficient is read from class sums: no wavelet value is
    # evaluated, and a label meeting the ball takes at most p characters.
    # An exact table takes none (its characters are rotations), so for this
    # one the bound on `character_amp` holds vacuously
    rng = random.Random(5)
    table = {rep: Cyc.rational(2, rng.randint(1, 5)) for rep in ball_reps(2, 3, 3)}
    window = Window(-2, 3, 5)
    analyze(LocallyConstantFn(2, 3, 3, table), window)
    labels = enumerate_indices(2, window)
    assert len(labels) == 192
    # the cells have resolution 3 and the ball radius 2^3, so a label meets
    # them when n >= 1 - 3 and its support p^(-n)(m + Z_p) lies in the ball
    meeting = [i for i in labels if i.n >= -2 and (i.n + i.m_depth <= 3 or not i.m_digits)]
    assert len(meeting) == 63
    assert evaluations == []
    assert len(characters) <= 2 * len(meeting)


def test_analyze_sums_integer_terms_and_normalizes_once_per_coefficient(monkeypatch):
    # the workload-sized table: a dense mean-zero exact table of +v, -v cell
    # pairs, each v a rational times a 4th root of unity, on |x| <= 2^3 at
    # resolution 3.  Its class sums and twiddled children are integer term
    # dicts, so no `Cyc` is added, and each of the 63 (class, j) candidates
    # of the labels meeting the ball is normalized at most once
    p = 2
    rng = random.Random(601)
    reps = ball_reps(p, 3, 3)
    rng.shuffle(reps)
    table = {}
    for r, s in zip(reps[::2], reps[1::2]):
        v = (Cyc.root_of_unity(p, RationalPhase(rng.randrange(4), 4))
             * Fraction(rng.randint(1, 3), rng.randint(1, 4)))
        table[r], table[s] = v, -v
    f = LocallyConstantFn(p, 3, 3, table)
    adds, normalized = [], []
    for name in ("__add__", "__radd__"):
        real_add = getattr(Cyc, name)
        monkeypatch.setattr(Cyc, name, lambda x, y, real_add=real_add: adds.append(y) or real_add(x, y))
    real_normalize = exact._normalize
    monkeypatch.setattr(exact, "_normalize", lambda *args: normalized.append(args) or real_normalize(*args))
    e = analyze(f, Window(-2, 3, 5))
    assert adds == []
    assert 0 < len(e.coefficients) <= len(normalized) <= 63
    monkeypatch.undo()
    assert list(e.coefficients) == list(label_by_label_analyze(f, Window(-2, 3, 5)))


def test_analyze_keeps_a_root_far_above_the_cells_sparse():
    # a value at level 40 on a 2-cell table: the term dicts hold the cells'
    # own terms, where coefficient lists over the 2^40 exponents of that
    # level could not even be built
    p = 2
    far = Cyc.root_of_unity(p, RationalPhase(1, 2**40))
    f = LocallyConstantFn(p, 1, 0, {Fraction(0): far, Fraction(1, 2): Cyc.one(p) * 3})
    window = Window(-1, 3, 2)
    start = time.perf_counter()
    got = analyze(f, window).coefficients
    assert time.perf_counter() - start < 1.0
    want = label_by_label_analyze(f, window)
    assert list(got) == list(want)
    for idx in want:
        same_amplitude(got[idx], want[idx])


def test_analyze_sums_a_hidden_zero_class_as_the_oracle_does():
    # sqrt(2) - (zeta_8 + zeta_8^7) is 0, which only the Gauss-sum test
    # sees, and both cells lie in one class down to n = 0.  Summed as terms,
    # the class keeps its pairs, as each oracle inner product does, so where
    # sqrt(2) lies in the field the coefficients have the oracle's (a, b) split
    p = 2
    z8 = [Cyc.root_of_unity(p, RationalPhase(k, 8)) for k in range(8)]
    f = LocallyConstantFn(p, 1, 2, {Fraction(0): Cyc.quad(p, 0, 1), Fraction(2): -(z8[1] + z8[7]),
                                    Fraction(1, 2): z8[3], Fraction(3, 2): Cyc.one(p)})
    window = Window(-1, 1, 2)
    got, want = analyze(f, window).coefficients, label_by_label_analyze(f, window)
    assert list(got) == list(want)
    for idx in want:
        same_amplitude(got[idx], want[idx])


def test_synthesize_builds_no_wavelet_table(evaluations, characters, monkeypatch):
    # each label adds its p child values straight into the cells: no wavelet
    # table is built or refined, and no cell value is evaluated
    p = 3
    rng = random.Random(11)
    table = {rep: Cyc.rational(p, rng.randint(1, 5)) for rep in ball_reps(p, 2, 2)}
    e = analyze(LocallyConstantFn(p, 2, 2, table), Window(-1, 2, 3))
    assert len(e.coefficients) == 80
    built = []
    for owner, name in ((wavelets, "materialize"), (LocallyConstantFn, "refine_to")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: built.append(name))
    characters.clear()
    # two digits finer than the window's finest resolution 2, on |x| <= p^2
    f = synthesize(e, resolution=4)
    assert len(f.table) == p**6
    assert built == [] and evaluations == []
    assert len(characters) <= p * len(e.coefficients)


@pytest.fixture
def cyc_ops(monkeypatch):
    counts = {"add": 0, "mul": 0}

    def counting(real, kind):
        def op(*args):
            counts[kind] += 1
            return real(*args)
        return op

    for name, kind in (("__add__", "add"), ("__radd__", "add"),
                       ("__mul__", "mul"), ("__rmul__", "mul")):
        monkeypatch.setattr(Cyc, name, counting(getattr(Cyc, name), kind))
    return counts


@pytest.mark.parametrize("p,m,k", [(2, 6, 6), (3, 3, 3)])
def test_synthesize_work_over_the_complete_window(cyc_ops, p, m, k):
    # one product per label and one per other child, and at most one
    # addition per child value and two per cell
    rng = random.Random(p)
    table = {rep: Cyc.rational(p, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
             * Cyc.root_of_unity(p, RationalPhase(rng.randrange(p * p), p * p))
             for rep in ball_reps(p, m, k)}
    e = analyze(LocallyConstantFn(p, m, k, table), Window(1 - k, m, m + k - 1))
    cells, labels = p ** (m + k), len(e.coefficients)
    assert labels > cells - p ** (m + k - 1)
    cyc_ops.update(add=0, mul=0)
    f = synthesize(e)
    assert len(f.table) == cells
    assert cyc_ops["add"] <= 2 * cells + p * labels
    assert cyc_ops["mul"] <= (p + 1) * labels


def test_synthesize_of_nothing_builds_no_level():
    # no label, so no class of the p^(10^6) cells is visited
    start = time.perf_counter()
    f = synthesize(WaveletExpansion(2, Window(-5, 5, 1)), resolution=10**6)
    assert time.perf_counter() - start < 1.0
    assert (f.support_exponent, f.resolution, f.table) == (0, 10**6, {})


# -- analyze ----------------------------------------------------------------------


# p^(M+K) <= 243 cells and a window of at most a few hundred labels
_MAX_DEPTH = {2: 7, 3: 5, 5: 3}
_MAX_M_DEPTH = {2: 4, 3: 3, 5: 2}


def _amplitude(draw, p, exact):
    if not exact:
        return complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    a = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    b = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3))) if draw(st.booleans()) else 0
    phase = RationalPhase(draw(st.integers(0, p * p - 1)), p * p)
    return Cyc.quad(p, a, b) * Cyc.root_of_unity(p, phase)


@st.composite
def analysis_cases(draw):
    """A table and a window reaching below its resolution, above its ball
    and to m-depths whose supports leave the ball."""
    p = draw(st.sampled_from((2, 3, 5)))
    exact = draw(st.booleans())
    if draw(st.integers(0, 9)) == 0:
        # one cell on a p^40 ball
        m, k = 40, draw(st.sampled_from((-40, -39, -38)))
        reps = [draw(st.sampled_from(ball_reps(p, m, k)))]
    else:
        m = draw(st.integers(-2, 3))
        k = draw(st.integers(-m, _MAX_DEPTH[p] - m))
        density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
        rng = random.Random(draw(st.integers(0, 2**32)))
        reps = [r for r in ball_reps(p, m, k) if rng.random() < density]
    table = {}
    for rep in reps:
        v = _amplitude(draw, p, exact)
        if v:
            table[rep] = v
    n_min = draw(st.integers(-k - 1, m + 1))
    n_max = draw(st.integers(n_min, n_min + 3))
    window = Window(n_min, n_max, draw(st.integers(0, _MAX_M_DEPTH[p])))
    return LocallyConstantFn(p, m, k, table), window


@given(analysis_cases())
@example((LocallyConstantFn(3, 40, -40, {Fraction(0): 1j}), Window(39, 39, 1)))
def test_analyze_matches_label_by_label_inner_products(case):
    f, window = case
    got = analyze(f, window).coefficients
    want = label_by_label_analyze(f, window)
    if f.is_exact():
        assert list(got) == list(want)
        for idx in want:
            same_amplitude(got[idx], want[idx])
    else:
        # a label finer than the cells sees f constant on its support: the
        # class sums give no coefficient, where the oracle keeps the rounding
        # residue of its p-term sum.  That residue scales with the terms, so
        # values are compared at ||f||, which bounds every |c| (Bessel)
        assert all(idx.n >= 1 - f.resolution for idx in got)
        size = abs(complex(inner_product(f, f))) ** 0.5
        tol = 1e-12 * max(1.0, size)
        for idx in set(got) | set(want):
            assert abs(complex(got.get(idx, 0j)) - complex(want.get(idx, 0j))) <= tol


@given(analysis_cases(), st.integers(1, 30))
def test_analyze_cap_error_matches_label_by_label(case, cap):
    f, window = case
    try:
        label_by_label_analyze(f, window, cap)
    except EnumerationCapError as exc:
        with pytest.raises(EnumerationCapError) as got:
            analyze(f, window, cap)
        assert str(got.value) == str(exc)
    else:
        analyze(f, window, cap)


# -- synthesize over random label sets ---------------------------------------------


@st.composite
def synthesis_cases(draw):
    """(expansion, resolution, f): labels drawn depth first, so every m-depth
    of the window turns up, with exact (sqrt(p) parts included), float or
    mixed coefficients, at the window's finest resolution or finer; or the
    analysis of f = +v, -v on two cells, whose synthesis cancels on every
    other cell.  A table has at most p^_MAX_DEPTH cells."""
    p = draw(st.sampled_from((2, 3, 5)))
    room = _MAX_DEPTH[p] - 1
    if draw(st.integers(0, 4)) == 0:
        m = draw(st.integers(-1, 2))
        k = draw(st.integers(1 - m, room + 1 - m))
        r, s = draw(st.lists(st.sampled_from(ball_reps(p, m, k)), min_size=2, max_size=2,
                             unique=True))
        v = _amplitude(draw, p, True)
        if not v:
            v = Cyc.one(p)
        f = LocallyConstantFn(p, m, k, {r: v, s: -v})
        return analyze(f, Window(1 - k, m, m + k - 1)), None, f
    n_min = draw(st.integers(-3, 2))
    span = draw(st.integers(0, 2))
    depth = draw(st.integers(0, min(_MAX_M_DEPTH[p], room - span)))
    extra = draw(st.integers(min(1, room - span - depth), room - span - depth))
    resolution = draw(st.sampled_from((None, 1 - n_min + extra)))
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    coeffs = {}
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, depth))
        digits = [draw(st.integers(0, p - 1)) for _ in range(k - 1)]
        if k:
            digits.append(draw(st.integers(1, p - 1)))
        idx = KozyrevIndex(draw(st.integers(n_min, n_min + span)), tuple(digits),
                           draw(st.integers(1, p - 1)))
        v = _amplitude(draw, p, kind == "exact" or (kind == "mixed" and draw(st.booleans())))
        if v:
            coeffs[idx] = v
    return WaveletExpansion(p, Window(n_min, n_min + span, depth), coeffs), resolution, None


@given(synthesis_cases())
@example((WaveletExpansion(3, Window(-1, 1, 1)), None, None))
@example((WaveletExpansion(2, Window(-1, 1, 1)), 4, None))
def test_synthesize_matches_the_fold_over_random_labels(case):
    e, resolution, f = case
    got = synthesize(e, resolution)
    same_synthesis(got, folded_synthesize(e, resolution), e)
    if f is not None:
        # the complete window carries all of the mean-zero f
        assert set(got.table) == set(f.table)
        assert fn_equal(got, f)


@given(synthesis_cases(), st.data())
def test_synthesize_cap_error_matches_label_by_label(case, data):
    e, resolution, _ = case
    p = e.prime
    cap = data.draw(st.integers(1, p**3))
    coeffs = dict(e.coefficients)
    if data.draw(st.booleans()):
        # j = p passes the window, not `validate_index`
        n = data.draw(st.integers(e.window.n_min, e.window.n_max))
        coeffs[KozyrevIndex(n, (), p)] = Cyc.one(p)
    e = WaveletExpansion(p, e.window, coeffs)
    try:
        want = folded_synthesize(e, resolution, cap)
    except (EnumerationCapError, InvalidInputError) as exc:
        with pytest.raises(type(exc)) as got:
            synthesize(e, resolution, cap)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        same_synthesis(synthesize(e, resolution, cap), want, e)
