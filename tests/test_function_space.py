"""Coset-cell tables: integration, inner products, Fourier, translations."""

import cmath
import copy
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padic_wavelets import exact, functions
from padic_wavelets.errors import EnumerationCapError, InvalidInputError, PrimeMismatchError
from padic_wavelets.exact import Cyc, amp_equal
from padic_wavelets.functions import (
    LocallyConstantFn,
    amp_from_json,
    amp_to_json,
    cell_index,
    character_amp,
    fn_equal,
    fn_from_json,
    fn_to_json,
    fourier,
    inner_product,
    integrate,
    inverse_fourier,
    reduce_rep,
)
from padic_wavelets.padic import RationalPhase
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    expansion_from_json,
    expansion_to_json,
    materialize,
)

import oracles
from oracles import ball_reps, indicator_fn, scale_arg, support_measure, translate


def random_exact_fn(p, support, resolution, rng, density=0.7, sqrt_p=False) -> LocallyConstantFn:
    """Rationals times p^2-th roots of unity; with `sqrt_p`, about a third
    of them also times sqrt(p)."""
    table = {}
    for rep in ball_reps(p, support, resolution):
        if rng.random() < density:
            v = Cyc.rational(p, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            v = v * Cyc.root_of_unity(p, RationalPhase(rng.randint(0, p**2 - 1), p**2))
            if sqrt_p and rng.random() < 0.3:
                v = v * Cyc.half_power(p, 1)
            if v:
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


def test_cap_decided_from_the_exponent():
    # p^e > cap as soon as e >= cap.bit_length(); neither count is computed
    with pytest.raises(EnumerationCapError) as err:
        ball_reps(3, 100000, 0, cap=1000)
    assert str(err.value) == "enumeration of 3^100000 cells exceeds the cap of 1000"
    two_cells = LocallyConstantFn(2, 0, 1, {Fraction(0): Cyc.one(2), Fraction(1): Cyc.one(2)})
    with pytest.raises(EnumerationCapError) as err:
        two_cells.refine_to(10**9, cap=1000)
    assert str(err.value) == "enumeration of 2*2^999999999 cells exceeds the cap of 1000"
    assert LocallyConstantFn(2, 0, 1, {}).refine_to(10**9, cap=1000).table == {}
    # below the exponent bound the count is still computed and printed
    with pytest.raises(EnumerationCapError) as err:
        ball_reps(3, 3, 4, cap=1000)
    assert str(err.value) == "enumeration of 2187 cells exceeds the cap of 1000"


def test_reader_loads_cells_at_a_huge_support_exponent():
    # the ball check reads the digits and p^(-M) is taken once per file
    m = 10**6
    cells = [{"digits": [i % 3, i // 3 % 3, i // 9], "mag_num": 1, "mag_den": 1,
              "phase_num": 0, "phase_den": 1} for i in range(1, 21)]
    f = fn_from_json({"prime": 3, "support_exponent": m, "resolution_exponent": 0,
                      "cells": cells})
    unit = Fraction(3) ** -m
    assert set(f.table) == {i * unit for i in range(1, 21)}


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
                assert not integrate(materialize(p, KozyrevIndex(n, (), j)))


@st.composite
def tables_with_floats(draw):
    """A table holding what a JSON table can hold: at random cells a
    rational magnitude times a phase, and at others a float value."""
    p = draw(st.sampled_from((2, 3, 5)))
    depth = draw(st.integers(0, 3 if p < 5 else 2))
    m = draw(st.integers(-1, depth + 1))
    table = {}
    for rep in ball_reps(p, m, depth - m):
        kind = draw(st.sampled_from(("empty", "exact", "float")))
        if kind == "exact":
            mag = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
            phase = RationalPhase(draw(st.integers(0, p**3 - 1)), p**3)
            v = Cyc.rational(p, mag) * Cyc.root_of_unity(p, phase)
        elif kind == "float":
            v = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        else:
            continue
        if v:
            table[rep] = v
    return LocallyConstantFn(p, m, depth - m, table)


@given(tables_with_floats())
def test_integrate_sums_exactly_up_to_the_first_float(f):
    # in sorted cell order, the exact values before the first float are
    # summed exactly, and from that float on the sum goes on in complex
    values = [f.table[rep] for rep in sorted(f.table)]
    want = oracles.sum_in_order(f.prime, values) * Fraction(f.prime) ** (-f.resolution)
    got = integrate(f)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_integrate_linear():
    rng = random.Random(1)
    f = random_exact_fn(2, 1, 2, rng)
    g = random_exact_fn(2, 1, 2, rng)
    assert integrate(oracles.add(f, g)) == integrate(f) + integrate(g)


def test_inner_product_positive():
    rng = random.Random(2)
    f = random_exact_fn(3, 0, 2, rng)
    ip = inner_product(f, f)
    assert ip.is_rational and ip.rational_value() >= 0
    zero = LocallyConstantFn(3, 0, 2, {})
    assert not inner_product(zero, zero)


def test_inner_product_mixed_resolutions():
    # pairing a coarse function against a fine one sums over the fine cells
    p = 2
    coarse = indicator_fn(p)
    fine = materialize(p, KozyrevIndex(-1))
    assert not inner_product(coarse, fine)
    assert not inner_product(fine, coarse)
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
    assert oracles.add(f, g).table == {Fraction(1): 2j}
    assert oracles.subtract(f, f).table == {}


def test_partition_of_unity():
    # depth-1 sub-cell indicators of Z_p sum to the Z_p indicator
    p = 3
    parent = indicator_fn(p)
    total = LocallyConstantFn(p, 0, 1, {})
    for c in range(p):
        total = oracles.add(total, LocallyConstantFn(p, 0, 1, {Fraction(c): Cyc.one(p)}))
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


# sqrt(5) lies in every Q(zeta_(5^t)), so at p = 5 the transformed cells,
# with rational and sqrt(5) parts, go through the Gauss-sum zero test
@given(
    p=st.sampled_from((2, 3, 5)),
    shape=st.sampled_from([(0, 0), (1, 1), (0, 3), (2, 1), (1, 2)]),
    seed=st.integers(0, 10**6),
)
def test_fourier_round_trip_exact(p, shape, seed):
    m, k = shape
    f = random_exact_fn(p, m, k, random.Random(seed), sqrt_p=True)
    assert fn_equal(inverse_fourier(fourier(f)), f)


@given(
    p=st.sampled_from((2, 3, 5)),
    seed=st.integers(0, 10**6),
)
def test_plancherel(p, seed):
    # N = 25 at p = 5: at N = 125 each transformed cell holds up to 100
    # terms, which the inner product multiplies pairwise
    rng = random.Random(seed)
    k = 1 if p == 5 else 2
    f = random_exact_fn(p, 1, k, rng, sqrt_p=True)
    g = random_exact_fn(p, 1, k, rng, sqrt_p=True)
    assert inner_product(f, g) == inner_product(fourier(f), fourier(g))


@pytest.mark.parametrize("p,density", [(2, 1.0), (3, 0.01)])
def test_plancherel_at_full_desk_scale(p, density):
    # M + K = 6; the p = 3 instance is sparse to keep the exact sums small
    rng = random.Random(17)
    f = random_exact_fn(p, 3, 3, rng, density=density)
    g = random_exact_fn(p, 3, 3, rng, density=density)
    assert f.table and g.table
    assert inner_product(f, g) == inner_product(fourier(f), fourier(g))


def test_dense_round_trip_and_plancherel_at_p3():
    # N = 243 (M = 2, K = 3), every cell drawn; the transform holds about
    # 25k terms.  On an idle 2-vCPU host the round trip took about 0.6 s as
    # one character sum per output cell and takes about 0.11 s as the
    # radix-p pass; the bound leaves room for a loaded host
    f = random_exact_fn(3, 2, 3, random.Random(17), density=1.0)
    assert len(f.table) > 200
    start = time.perf_counter()
    g = fourier(f)
    back = inverse_fourier(g)
    elapsed = time.perf_counter() - start
    assert back == f
    assert elapsed < 1.5, f"exact round trip at N = 243 took {elapsed:.2f} s"
    assert inner_product(g, g) == inner_product(f, f)


def orbits(p, depth, level):
    """The orbits of the indices [0, p^depth) under multiplication by the
    units u = 1 mod p^level below p^depth, each as a frozenset."""
    n = p**depth
    units = [u for u in range(n) if u % p and (u - 1) % p**level == 0] or [1]
    return {frozenset(u * k % n for u in units) for k in range(n)}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_orbit_count_matches_the_orbits(p):
    # B = 1 + sum over v < depth of phi(p^min(level, depth - v)), against
    # the orbits themselves
    for depth in range(5 if p < 5 else 3):
        for level in range(depth + 3):
            assert functions._orbit_count(p, depth, level) == len(orbits(p, depth, level))


def count_calls(monkeypatch):
    """{kind: calls} of `cyc_from_coefficients` ("reduced"), `_canonical`
    ("canonical"), `Cyc.__init__` ("built") and `class_tree_dft` ("dft"),
    and per `class_tree_dft` call the Cyc built inside it."""
    counts = {"reduced": 0, "canonical": 0, "built": 0, "dft": 0}
    built_in_pass = []

    def counting(real, kind):
        def op(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)
        return op

    monkeypatch.setattr(functions, "cyc_from_coefficients",
                        counting(functions.cyc_from_coefficients, "reduced"))
    monkeypatch.setattr(exact, "_canonical", counting(exact._canonical, "canonical"))
    monkeypatch.setattr(Cyc, "__init__", counting(Cyc.__init__, "built"))
    real_dft = functions.class_tree_dft

    def dft(*args):
        counts["dft"] += 1
        before = counts["built"]
        stage = real_dft(*args)
        built_in_pass.append(counts["built"] - before)
        return stage

    monkeypatch.setattr(functions, "class_tree_dft", dft)
    return counts, built_in_pass


def zeta_times_a_transform(p, m, k):
    """zeta_N times the transform of a dense table: its values lie at level
    M+K, where every orbit is one cell and B*T > N^2, and its value at 0
    does too, so that it is equivariant under no unit other than 1 mod
    p^(M+K) and the trace route does not apply."""
    zeta = Cyc.root_of_unity(p, RationalPhase(1, p ** (m + k)))
    f = fourier(random_exact_fn(p, m, k, random.Random(p), density=1.0))
    g = LocallyConstantFn(p, k, m, {w: v * zeta for w, v in f.table.items()})
    assert max(v.level for v in g.table.values()) == g.table[Fraction(0)].level == m + k
    return g


def wavelet_times_a_dense_element(idx):
    """The 3 cells of a p = 3 wavelet in the ball of N = 729 cells, each
    value times one dense element at level 6, so that the table has T > N
    terms and B*T > N^2: most classes of its tree have a single child."""
    w = materialize(3, idx)
    w = w.with_support(6 - w.resolution)
    dense = Cyc(3, 6, {e: (e % 5 - 2, 0) for e in range(486)})
    f = LocallyConstantFn(3, w.support_exponent, w.resolution,
                          {r: v * dense for r, v in w.table.items()})
    assert len(f.table) == 3 and sum(len(v.terms) for v in f.table.values()) > 729
    return f


@pytest.mark.parametrize("make,against_oracle", [
    pytest.param(lambda: zeta_times_a_transform(3, 2, 3), False, id="3-2-3"),
    pytest.param(lambda: zeta_times_a_transform(2, 4, 4), False, id="2-4-4"),
    pytest.param(lambda: wavelet_times_a_dense_element(KozyrevIndex(0, (1,), 1)), True,
                 id="wavelet 0:1:1"),
    pytest.param(lambda: wavelet_times_a_dense_element(KozyrevIndex(-2, (2, 1), 2)), True,
                 id="wavelet -2:2,1:2"),
])
def test_dense_fourier_reduces_each_cell_once(monkeypatch, make, against_oracle):
    # tables on which the class tree runs.  Each transform reduces every
    # one of its N output cells once, from coefficient lists, with no
    # canonical pass over a term dict, and builds no Cyc inside the
    # radix-p pass; a cell that reduces to zero is built as Cyc.zero and
    # left out.  The wavelet tables are also compared with the per-cell
    # oracle by key order and repr; on the dense tables, where it takes
    # about 1 s each, the counts alone are checked
    g = make()
    wants = oracles.fourier_by_cell(g) if against_oracle else None
    counts, built_in_pass = count_calls(monkeypatch)
    cells = g.prime ** (g.support_exponent + g.resolution)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        counts.update(reduced=0, canonical=0, built=0, dft=0)
        built_in_pass.clear()
        got = transform(g).table
        assert counts == {"reduced": cells, "canonical": 0, "built": cells, "dft": 1}
        assert built_in_pass == [0]
        if against_oracle:
            want = wants[sign].table
            assert list(got) == list(want)
            assert all(repr(got[w]) == repr(v) for w, v in want.items())


@pytest.mark.parametrize("p,m,k", [(3, 2, 3), (2, 4, 4), (3, 2, 2)])
def test_orbit_route_reduces_each_orbit_once(monkeypatch, p, m, k):
    # a dense table at level 2 takes the orbit route: one reduction from
    # coefficient lists per orbit of the output indices under the units
    # u = 1 mod p^2, no canonical pass and no radix-p pass; every other
    # cell is sigma_u of its orbit's first, and the output is the tree's
    f = random_exact_fn(p, m, k, random.Random(p), density=1.0)
    assert max(v.level for v in f.table.values()) == 2
    want = {sign: t.table for sign, t in oracles.fourier_by_cell(f).items()}
    counts, _ = count_calls(monkeypatch)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        counts.update(reduced=0, canonical=0, built=0, dft=0)
        got = transform(f).table
        assert counts["reduced"] == len(orbits(p, m + k, 2))
        assert (counts["canonical"], counts["dft"]) == (0, 0)
        assert list(got) == list(want[sign])
        assert all(repr(got[w]) == repr(v) for w, v in want[sign].items())


@pytest.mark.parametrize("level,route", [(2, "trace"), (3, "tree")])
def test_trace_route_checks_each_cell_once_and_reduces_each_output_once(
        monkeypatch, level, route):
    # the inverse transform of the benchmark's round trip: g = fourier(f)
    # for a dense p = 3 table f on N = 81 cells, whose values lie at level
    # M+K, so that B*T > N^2, and are equivariant under the units u = 1 mod
    # p^level.  At level 2 the trace route checks each cell once, against
    # its image at u0*k for u0 = 1 + 3^2, and moves the terms of exactly
    # the cells above level 2 (those at or below it are fixed by sigma_u0)
    # by e -> u0*e, then reduces each of the N output cells once from
    # coefficient lists, with no canonical pass and no radix-p pass.  At
    # level 3 = M+K-1 the rule keeps the tree, and nothing is checked
    rng = random.Random(level)
    f = LocallyConstantFn(3, 2, 2, {
        rep: Cyc.root_of_unity(3, RationalPhase(rng.randrange(3**level), 3**level))
        * Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        for rep in ball_reps(3, 2, 2)})
    g = fourier(f)
    assert max(v.level for v in g.table.values()) == 4
    want = oracles.fourier_by_cell(g)[+1].table
    counts, _ = count_calls(monkeypatch)
    looked_up, moved = [], []
    real_check, real_moved = functions._equivariant, functions.moved_terms

    class Lookups(dict):
        def get(self, k, default=None):
            looked_up.append(k)
            return super().get(k, default)

    def equivariant(p, depth, cells, at):
        return real_check(p, depth, Lookups(cells), at)

    def moved_terms(p, modulus, exponents, pairs):
        terms = tuple(zip(exponents, pairs))
        moved.append((modulus, terms))
        return real_moved(p, modulus, *zip(*terms))

    monkeypatch.setattr(functions, "_equivariant", equivariant)
    monkeypatch.setattr(functions, "moved_terms", moved_terms)
    got = inverse_fourier(g).table
    if route == "trace":
        assert len(g.table) == 81
        assert sorted(looked_up) == sorted(10 * cell_index(r, 3, 2) % 81 for r in g.table)
        above = [v for v in g.table.values() if v.level > 2]
        assert 0 < len(above) < 81
        assert Counter(moved) == Counter(
            (3**v.level, tuple((10 * e % 3**v.level, c) for e, c in v.terms.items()))
            for v in above)
        assert counts["reduced"] == 81
        assert (counts["canonical"], counts["dft"]) == (0, 0)
    else:
        assert (looked_up, moved, counts["dft"]) == ([], [], 1)
    assert list(got) == list(want) == list(f.table)
    assert all(repr(got[w]) == repr(v) for w, v in want.items())


@given(
    p=st.sampled_from((2, 3, 5)),
    sqrt_p=st.booleans(),
    change=st.sampled_from(("none", "term", "drop", "den", "split")),
    seed=st.integers(0, 10**6),
)
# cell 1 of a p = 5 transform with another split into rational and sqrt(5)
# parts, which sigma_u does not map to its neighbour's split
@example(p=5, sqrt_p=False, change="split", seed=0)
@example(p=5, sqrt_p=True, change="split", seed=1)
@example(p=2, sqrt_p=True, change="none", seed=2)
def test_equivariance_check_matches_the_galois_definition(p, sqrt_p, change, seed):
    # g = fourier(f) for a table f at level L < M+K on up to 125 cells,
    # half of f's cells times sqrt(p) with `sqrt_p`, so that g(u*k) =
    # sigma_u(g(k)) for the units u = 1 mod p^L; or a copy of g with one
    # term changed, one cell dropped, one den scaled, or at p = 5 cell 1
    # with another sqrt(5) split.  At every level the trace route may
    # check, _equivariant gives the verdict of cyc_galois on every cell
    rng = random.Random(seed)
    depth = rng.randint(2, max(d for d in range(2, 8) if p**d <= 125))
    m, level = rng.randint(0, depth), rng.randint(1, depth - 1)
    table = {}
    for rep in ball_reps(p, m, depth - m):
        v = Cyc.root_of_unity(p, RationalPhase(rng.randrange(p**level), p**level))
        v = v * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if sqrt_p and rng.random() < 0.5:
            v = v * Cyc.half_power(p, 1)
        if v:
            table[rep] = v
    g = fourier(LocallyConstantFn(p, m, depth - m, table))
    cells = {cell_index(r, p, g.support_exponent): v for r, v in g.table.items()}
    if change == "split" and p != 5:
        change = "term"
    k = 1 if change == "split" else rng.choice(sorted(cells)) if cells else None
    if k in cells and change != "none":
        v = cells.pop(k)
        if change == "term":
            terms = dict(v.terms)
            e = rng.choice(sorted(terms))
            terms[e] = (terms[e][0] + 1, terms[e][1])
            v = Cyc(p, v.level, terms, v.den)
        elif change == "den":
            v = Cyc(p, v.level, dict(v.terms), v.den * rng.randint(2, 3))
        elif change == "split":
            # plus sqrt(5) - (1 + 2 zeta_5 + 2 zeta_5^4), which is zero,
            # term by term
            top, den, parts = exact.lift(5, [
                (v.level, v.terms, v.den), (1, {0: (-1, 1), 1: (-2, 0), 4: (-2, 0)}, 1)])
            v = Cyc(5, top, exact.added_terms(parts), den)
        if change != "drop" and v:
            cells[k] = v
    for at in range(2 if p == 2 else 1, depth):
        want = oracles.equivariant_by_galois(p, depth, cells, at)
        assert functions._equivariant(p, depth, cells, at) == want
        if change == "none" and at >= level and not (p == 2 and sqrt_p and at < 3):
            assert want


# -- Fourier against the naive character sum -----------------------------------------


def naive_fourier(f, sign):
    """p^(-K) * sum over sorted cells r of f(r) chi(sign * w * r), exactly."""
    p = f.prime
    out = {}
    for w in ball_reps(p, f.resolution, f.support_exponent):
        terms = [f.table[r] * character_amp(p, sign * w * r) for r in sorted(f.table)]
        total = oracles.sum_in_order(p, terms) * Fraction(p) ** (-f.resolution)
        if total:
            out[w] = total
    return out


def naive_fourier_cmath(f, sign):
    """The same sum in floating point: chi(q) = exp(2 pi i (q mod 1))."""
    p = f.prime
    return {
        w: sum(complex(v) * cmath.exp(2j * cmath.pi * float(sign * w * r % 1))
               for r, v in sorted(f.table.items())) * float(p) ** (-f.resolution)
        for w in ball_reps(p, f.resolution, f.support_exponent)
    }


def random_value(p, rng, max_level):
    """One to three terms at random levels up to max_level, some times a
    half-integral power of p."""
    v = Cyc.zero(p)
    for _ in range(rng.randint(1, 3)):
        level = rng.randint(0, max_level)
        term = Cyc.root_of_unity(p, RationalPhase(rng.randrange(p**level), p**level))
        term = term * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if rng.random() < 0.3:
            term = term * Cyc.half_power(p, rng.choice((-1, 1, 3)))
        v = v + term
    return v


FOURIER_SHAPES = [(0, 0), (1, 1), (0, 2), (2, 0), (-1, 2), (2, -1)]


@given(
    p=st.sampled_from((2, 3, 5)),
    shape=st.sampled_from(FOURIER_SHAPES),
    seed=st.integers(0, 10**6),
)
def test_fourier_matches_naive_sum_exact(p, shape, seed):
    # values reach phases 1/p^(M+K+3), finer than the grid of w * r
    m, k = shape
    rng = random.Random(seed)
    table = {}
    for rep in ball_reps(p, m, k):
        if rng.random() < 0.7:
            v = random_value(p, rng, m + k + 3)
            if v:
                table[rep] = v
    f = LocallyConstantFn(p, m, k, table)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        g = transform(f)
        assert (g.support_exponent, g.resolution) == (k, m)
        want = naive_fourier(f, sign)
        assert set(g.table) == set(want)
        assert all(g.table[w] == want[w] for w in want)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("idx", (KozyrevIndex(-1), KozyrevIndex(1, (1,), 1), KozyrevIndex(3)))
def test_fourier_matches_naive_sum_on_sqrt_p_wavelets(p, idx):
    # odd n makes every value a multiple of sqrt(p)
    f = materialize(p, idx, extra_depth=1)
    assert any(b for v in f.table.values() for _, b in v.terms.values())
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        g = transform(f)
        want = naive_fourier(f, sign)
        assert set(g.table) == set(want)
        assert all(g.table[w] == want[w] for w in want)


@pytest.mark.parametrize("t", (19, 20))
def test_fourier_matches_naive_sum_at_a_fine_phase(t):
    # N = 256 cells, one value at phase 1/2^t: far finer than the grid
    f = LocallyConstantFn(2, 4, 4, {
        Fraction(0): Cyc.one(2),
        Fraction(3, 16): Cyc.root_of_unity(2, RationalPhase(1, 2**t)) * Fraction(-2, 3),
    })
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        g = transform(f)
        want = naive_fourier(f, sign)
        assert set(g.table) == set(want)
        assert all(g.table[w] == want[w] for w in want)


@given(
    p=st.sampled_from((2, 3, 5)),
    shape=st.sampled_from(FOURIER_SHAPES),
    seed=st.integers(0, 10**6),
    mixed=st.booleans(),
)
def test_fourier_matches_naive_sum_float(p, shape, seed, mixed):
    # a table with any float value is summed in floating point
    m, k = shape
    rng = random.Random(seed)
    table = {}
    for rep in ball_reps(p, m, k):
        if rng.random() < 0.7:
            # mixed tables hold an exact value in every other stored cell
            if mixed and len(table) % 2:
                table[rep] = random_value(p, rng, m + k + 3)
            else:
                table[rep] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    f = LocallyConstantFn(p, m, k, table)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        g = transform(f)
        assert all(isinstance(v, complex) for v in g.table.values())
        for w, want in naive_fourier_cmath(f, sign).items():
            assert abs(complex(g.value_at(w)) - want) <= 1e-12


def oracle_table(p, kind, rng):
    """An exact table of one kind: dense; confined to one residue class mod
    p^t, so that the tree skips the other branches; sparse, at most p cells
    of one class mod p^(M+K-1) in a ball p^2 to p^3 times larger, the shape
    of a widened wavelet; an odd-n wavelet, whose values carry sqrt(p);
    equivariant, the transform g of a table whose values lie at levels up
    to L < M+K, so that g(u*k) = sigma_u(g(k)) for every unit u = 1 mod
    p^L, on up to 125 cells; or empty.  The first two hold values at
    levels up to M+K+3, above the grid of w*r; the sparse values stay at
    or below the level M+K of the widened ball, and take the orbit route
    (none of seeds 0 to 79 reaches the class tree, for each of p = 2, 3,
    5 and 7).  One in four equivariant tables has its cell 1 changed:
    plus 1, or for p = 5 the same value with another split into rational
    and sqrt(5) parts, which sigma_u does not map to its neighbour's
    split."""
    if kind == "equivariant":
        depth = rng.randint(2, max(d for d in range(2, 8) if p**d <= 125))
        m = rng.randint(0, depth)
        level = rng.randint(1, depth - 1)
        table = {}
        for rep in ball_reps(p, m, depth - m):
            v = random_value(p, rng, level)
            if v:
                table[rep] = v
        g = fourier(LocallyConstantFn(p, m, depth - m, table))
        one = Fraction(p) ** -g.support_exponent
        if one in g.table and rng.random() < 0.25:
            v = g.table[one]
            if p == 5:
                # plus sqrt(5) - (1 + 2 zeta_5 + 2 zeta_5^4), which is zero,
                # term by term: no Cyc holds it
                top, den, parts = exact.lift(5, [
                    (v.level, v.terms, v.den), (1, {0: (-1, 1), 1: (-2, 0), 4: (-2, 0)}, 1)])
                g.table[one] = Cyc(5, top, exact.added_terms(parts), den)
            elif v + 1:
                g.table[one] = v + 1
        return g
    if kind == "sparse":
        m, k = rng.choice([s for s in FOURIER_SHAPES if sum(s) >= 1])
        widen = rng.randint(2, 3) if p ** (m + k + 3) <= 3125 else 2
        c = rng.randrange(p ** (m + k - 1))
        table = {}
        for d in range(p):
            if rng.random() < 0.8:
                v = random_value(p, rng, m + widen + k)
                if v:
                    table[(c + d * p ** (m + k - 1)) * Fraction(p) ** -m] = v
        return LocallyConstantFn(p, m + widen, k, table)
    if kind == "wavelet":
        # m of depth 2 at p = 2 puts the values at level 3, where sqrt(2)
        # lies in the field, as sqrt(5) does at every level >= 1
        digits = [rng.randrange(p) for _ in range(rng.randint(0, 2))]
        if digits:
            digits[-1] = rng.randint(1, p - 1)
        idx = KozyrevIndex(rng.choice((-1, 1, 3)), tuple(digits), rng.randint(1, p - 1))
        f = materialize(p, idx, extra_depth=rng.randint(0, 1))
        return f.with_support(f.support_exponent + rng.randint(0, 1))
    m, k = rng.choice(FOURIER_SHAPES)
    table = {}
    if kind != "empty":
        size = p ** rng.randint(0, m + k) if kind == "class" else 1
        c = rng.randrange(size)
        for rep in ball_reps(p, m, k):
            if cell_index(rep, p, m) % size == c and rng.random() < 0.8:
                v = random_value(p, rng, m + k + 3)
                if v:
                    table[rep] = v
    return LocallyConstantFn(p, m, k, table)


@given(
    p=st.sampled_from((2, 3, 5, 7)),
    kind=st.sampled_from(("dense", "class", "sparse", "wavelet", "equivariant", "empty")),
    seed=st.integers(0, 10**6),
)
# sqrt(2) values at level 3 and sqrt(5) values, where the (a, b) split is
# not unique; two cells of one class mod 3; two level-3 sqrt(2) values of
# one class mod 8 in a ball of 16 cells
@example(p=2, kind="wavelet", seed=5)
@example(p=5, kind="wavelet", seed=0)
@example(p=3, kind="class", seed=4)
@example(p=2, kind="sparse", seed=18)
# the orbit route with sqrt(p) parts: sqrt(2) values at level 2, so that L
# is raised to 3 and B = 12 of N = 16; sqrt(5) values at level 1, B = 13 of
# N = 125; and a dense p = 3 table above level M+K at B*T = N^2 = 81
@example(p=2, kind="wavelet", seed=0)
@example(p=5, kind="wavelet", seed=3)
@example(p=3, kind="dense", seed=133)
# the trace route: sqrt(2) parts at levels up to 1, so that L is raised to
# 3, N = 32; at p = 5, cell 1 with another sqrt(5) split than sigma_u's
# image of its neighbour, and at p = 3 cell 1 plus 1, which both fall to
# the tree; and values at level L = M+K-1 = 3, where the rule keeps it
@example(p=2, kind="equivariant", seed=0)
@example(p=5, kind="equivariant", seed=0)
@example(p=3, kind="equivariant", seed=6)
@example(p=3, kind="equivariant", seed=5)
# the class tree with values above level M+K, one tree per residue: 3 at
# p = 2 with no sqrt(p) part, 3 at p = 3 with sqrt(3) parts, 5 at p = 5;
# and one residue at p = 2, N = 4, where one class mod 2 has one cell
@example(p=2, kind="dense", seed=1)
@example(p=3, kind="dense", seed=0)
@example(p=5, kind="class", seed=29)
@example(p=2, kind="dense", seed=0)
def test_fourier_matches_the_per_cell_oracle(p, kind, seed):
    # every route against one character sum per output cell: the same keys
    # in the same order, and every value == with the same repr.  The orbit
    # route runs exactly when the table has a cell and B*T <= N^2; else the
    # trace route runs exactly when the table is equivariant, same level,
    # den and terms, at a level L its rule yields; and the radix-p pass
    # runs on every other table with a cell
    f = oracle_table(p, kind, random.Random(seed))
    depth = f.support_exponent + f.resolution
    n = p**depth
    values = list(f.table.values())
    with_b = any(b for v in values for _, b in v.terms.values())
    level = max([0] + [v.level for v in values])
    if with_b:
        level = max(level, 3 if p == 2 else 1)
    terms = sum(len(v.terms) for v in values)
    orbit = bool(values) and functions._orbit_count(p, depth, level) * terms <= n * n
    cells = {cell_index(r, p, f.support_exponent): v for r, v in f.table.items()}
    trace = bool(values) and not orbit and any(
        functions._equivariant(p, depth, cells, at)
        for at in functions._trace_levels(p, depth, cells, with_b))
    wants = oracles.fourier_by_cell(f)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        with mock.patch.object(functions, "class_tree_dft",
                               wraps=functions.class_tree_dft) as dft, \
                mock.patch.object(functions, "_trace_cells",
                                  wraps=functions._trace_cells) as traced:
            got = transform(f).table
        assert (dft.call_count == 0) == (orbit or trace or not values)
        assert traced.call_count == trace
        want = wants[sign].table
        assert list(got) == list(want)
        for w, v in want.items():
            assert got[w] == v
            assert repr(got[w]) == repr(v)


def test_fourier_drops_a_cell_only_the_gauss_sum_zeroes():
    # sqrt(5) = 1 + 2 zeta_5 + 2 zeta_5^4, so the cells sum to zero at w = 0,
    # although the rational and sqrt(5) parts of that sum are not zero
    zeta = Cyc.root_of_unity(5, RationalPhase(1, 5))
    f = LocallyConstantFn(5, 0, 1, {
        Fraction(0): Cyc.half_power(5, 1) - 1,
        Fraction(1): zeta * -2,
        Fraction(4): zeta.conj() * -2,
    })
    wants = oracles.fourier_by_cell(f)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        got = transform(f).table
        assert Fraction(0) not in got
        want = wants[sign].table
        assert list(got) == list(want)
        assert all(repr(got[w]) == repr(v) for w, v in want.items())


@pytest.mark.parametrize("p,k,at,value", [
    # sqrt(5) - 1 - 2 (zeta_5^w + zeta_5^-w): zero at w = +-1, 2 sqrt(5) / 5
    # at w = +-2, where sigma_2 has taken sqrt(5) to -sqrt(5)
    (5, 1, 2, Cyc.half_power(5, 1) * Fraction(2, 5)),
    # sqrt(2) - zeta_8^w - zeta_8^-w: zero at w = +-1, sqrt(2) / 4 at w = +-3,
    # where sigma_5 = sigma_(1 mod 4) has taken sqrt(2) to -sqrt(2)
    (2, 3, 3, Cyc.half_power(2, 1) * Fraction(1, 4)),
])
def test_fourier_zero_by_the_gauss_sum_leaves_its_galois_images(p, k, at, value):
    # every value lies in Q(sqrt p) and the transform is zero at the unit
    # indices +-1 by the Gauss sum alone, but not at every unit index: L is
    # raised from 0 to 1 (p = 5) and from 0 to 3 (p = 2), so that no unit u
    # whose sigma_u moves sqrt(p) shares an orbit with +-1
    n = p**k
    c = Cyc.rational(p, -1 if p == 2 else -2)
    root = Cyc.half_power(p, 1) - (0 if p == 2 else 1)
    f = LocallyConstantFn(p, 0, k, {Fraction(0): root, Fraction(1): c, Fraction(n - 1): c})
    wants = oracles.fourier_by_cell(f)
    for sign, transform in ((-1, fourier), (+1, inverse_fourier)):
        got = transform(f).table
        assert sorted(got) == [Fraction(i, n) for i in range(n) if i not in (1, n - 1)]
        assert got[Fraction(at, n)] == value and got[Fraction(n - at, n)] == value
        want = wants[sign].table
        assert list(got) == list(want)
        assert all(repr(got[w]) == repr(v) for w, v in want.items())


def test_fourier_rejects_a_negative_cell_count():
    f = LocallyConstantFn(2, 1, -2, {})
    for transform in (fourier, inverse_fourier):
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            transform(f)


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


def test_fn_from_json_drops_zero_values():
    data = {"prime": 3, "support_exponent": 0, "resolution_exponent": 1, "cells": [
        {"digits": [0], "mag_num": 0, "mag_den": 5, "phase_num": 1, "phase_den": 3},
        {"digits": [1], "re": 0.0, "im": -0.0},
        {"digits": [2], "re": 0.5, "im": 0.0},
    ]}
    assert fn_from_json(data).table == {Fraction(2): 0.5}


def test_expansion_from_json_drops_zero_values():
    data = {"prime": 2, "window": {"n_min": -1, "n_max": 1, "m_depth": 1}, "coefficients": [
        {"n": 0, "m_digits": [], "j": 1, "mag_num": 0, "mag_den": 1, "phase_num": 0, "phase_den": 1},
        {"n": 1, "m_digits": [1], "j": 1, "re": 0.0, "im": 0.0},
        {"n": -1, "m_digits": [], "j": 1, "re": 0.0, "im": 2.0},
    ]}
    assert expansion_from_json(data).coefficients == {KozyrevIndex(-1): 2j}


def _cell_values(p):
    """Exact magnitudes times p^2-th roots of unity, as the JSON records
    hold them, or nonzero floats."""
    exact_values = st.builds(
        lambda num, den, k: Cyc.rational(p, Fraction(num, den))
        * Cyc.root_of_unity(p, RationalPhase(k, p * p)),
        st.integers(1, 5), st.integers(1, 4), st.integers(0, p * p - 1))
    floats = st.floats(-1, 1, allow_subnormal=False)
    return exact_values | st.builds(complex, floats, floats).filter(bool)


@st.composite
def sparse_tables(draw):
    """A sparse table over p in {2, 3, 5}, M and K of either sign, its keys
    i p^(-M) inserted in drawn order, not in index order."""
    p = draw(st.sampled_from((2, 3, 5)))
    depth = draw(st.integers(0, {2: 6, 3: 4, 5: 3}[p]))
    m = draw(st.integers(-3, depth + 3))
    indices = draw(st.lists(st.integers(0, p**depth - 1), unique=True, max_size=12))
    values = draw(st.lists(_cell_values(p), min_size=len(indices), max_size=len(indices)))
    unit = Fraction(p) ** -m
    return LocallyConstantFn(p, m, depth - m, {i * unit: v for i, v in zip(indices, values)})


@given(f=sparse_tables(), data=st.data())
@example(f=LocallyConstantFn(3, -2, 3, {Fraction(18): 1j, Fraction(0): 2.0, Fraction(9): -1j}),
         data=None)
def test_codec_lists_cells_by_index_and_labels_by_tuple(f, data):
    # the order the writers rely on: cell keys i p^(-M) sort as their
    # indices i, and labels sort as (n, m_digits, j)
    p, m, depth = f.prime, f.support_exponent, f.support_exponent + f.resolution
    record = fn_to_json(f)
    indices = [sum(d * p**e for e, d in enumerate(c["digits"])) for c in record["cells"]]
    assert all(len(c["digits"]) == depth for c in record["cells"])
    assert indices == sorted(indices)
    assert [i * Fraction(p) ** -m for i in indices] == sorted(f.table)
    back = fn_from_json(record)
    assert back.table == f.table
    assert list(back.table) == sorted(f.table)
    assert (back.support_exponent, back.resolution) == (m, f.resolution)
    if record["cells"]:
        # the same cell again, as written or with a zero digit past the ball
        first = copy.deepcopy(record["cells"][0])
        for again in (first, dict(first, digits=first["digits"] + [0])):
            with pytest.raises(InvalidInputError, match="repeat an earlier cell"):
                fn_from_json(dict(record, cells=record["cells"] + [again]))
    # a key past the last cell, and one between two cells
    for off in (p**depth * Fraction(p) ** -m, Fraction(p) ** -(m + 1)):
        table = dict(f.table)
        table[off] = 1.0
        with pytest.raises(InvalidInputError, match="does not fit the support ball"):
            fn_to_json(LocallyConstantFn(p, m, f.resolution, table))
    if data is None:
        return
    digits = st.lists(st.integers(0, p - 1), max_size=3).map(
        lambda ds: tuple(ds[:-1]) + (ds[-1] or 1,) if ds else ())
    labels = data.draw(st.lists(st.builds(KozyrevIndex, st.integers(-2, 2), digits,
                                          st.integers(1, p - 1)), unique=True, max_size=12))
    coefficients = {idx: 1j * (n + 1) for n, idx in enumerate(labels)}
    written = expansion_to_json(WaveletExpansion(p, Window(-2, 2, 3), coefficients))
    assert [(c["n"], tuple(c["m_digits"]), c["j"]) for c in written["coefficients"]] == \
        [(idx.n, idx.m_digits, idx.j) for idx in sorted(labels)]
    assert expansion_from_json(written).coefficients == coefficients
    if labels:
        again = dict(written["coefficients"][-1], m_digits=written["coefficients"][-1]["m_digits"] + [0])
        with pytest.raises(InvalidInputError, match="repeats an earlier label"):
            expansion_from_json(dict(written, coefficients=written["coefficients"] + [again]))


# a valid record of each kind, and every place a fuzzed value can go
FN_RECORD = {"prime": 3, "support_exponent": 1, "resolution_exponent": 1, "cells": [
    {"digits": [1, 2], "mag_num": 1, "mag_den": 2, "phase_num": 1, "phase_den": 9},
    {"digits": [0, 1], "re": 0.5, "im": -1.0},
]}
EXPANSION_RECORD = {"prime": 3, "window": {"n_min": -1, "n_max": 1, "m_depth": 1}, "coefficients": [
    {"n": 0, "m_digits": [2], "j": 2, "mag_num": 1, "mag_den": 2, "phase_num": 1, "phase_den": 9},
    {"n": -1, "m_digits": [], "j": 1, "re": 0.5, "im": -1.0},
]}


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _fn_fields(f):
    return [f.prime, f.support_exponent, f.resolution], list(f.table.values())


def _expansion_fields(e):
    w = e.window
    ints = [e.prime, w.n_min, w.n_max, w.m_depth]
    for idx in e.coefficients:
        ints += [idx.n, idx.j, *idx.m_digits]
    return ints, list(e.coefficients.values())


@pytest.mark.parametrize("reader, record, fields", [
    (fn_from_json, FN_RECORD, _fn_fields),
    (expansion_from_json, EXPANSION_RECORD, _expansion_fields),
])
@given(data=st.data())
def test_json_readers_load_or_reject(reader, record, fields, data):
    # any JSON value in any field (or the field left out) either loads or is
    # an InvalidInputError, which the CLI turns into exit 1; what loads has
    # integer fields, no stored zero and no float that is not finite
    path = data.draw(st.sampled_from(list(_paths(record))))
    value = data.draw(json_values | st.just(_DELETE))
    if not path:
        fuzzed = {} if value is _DELETE else value
    else:
        fuzzed = copy.deepcopy(record)
        holder = fuzzed
        for key in path[:-1]:
            holder = holder[key]
        if value is _DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    try:
        loaded = reader(fuzzed)
    except InvalidInputError:
        return
    ints, values = fields(loaded)
    assert all(type(i) is int for i in ints)
    assert all(values)
    assert all(cmath.isfinite(v) for v in values if not isinstance(v, Cyc))
