"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a `ACCEPTANCE Cnn: PASS` line (visible with `pytest -s`).
Everything marked exact is asserted with exact phase arithmetic, never a
tolerance; tolerances appear only where a criterion names one.
"""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from padic_wavelets.exact import Cyc, amp_equal
from padic_wavelets.functions import (
    LocallyConstantFn,
    fn_equal,
    fourier,
    inner_product,
    inverse_fourier,
)
from padic_wavelets.haar import (
    HaarIndex,
    monomial_coefficient,
    monomial_coefficient_quadrature,
)
from padic_wavelets.operators import (
    check_relations,
    relation_rows,
    translation_kernel_residual,
    vladimirov_kernel_apply,
)
from padic_wavelets.padic import RationalPhase
from padic_wavelets.wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    enumerate_m_digits,
    materialize,
)

import conftest
from conftest import WALL_CLOCK_BUDGET
from oracles import (
    ball_reps,
    closed_form_label_translated,
    closed_form_scaled,
    closed_form_scaled_translated,
    enumerate_indices,
    indicator_fn,
    log_limit_residual_norm,
    scale_arg,
    scaled,
    translate,
    verify_dilatation,
    verify_lowering,
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE C{number:02d}: PASS - {text}")


def test_c01_orthonormality():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        idxs = enumerate_indices(p, Window(-2, 2, 2))
        fns = [materialize(p, i) for i in idxs]
        for a in range(len(idxs)):
            for b in range(a, len(idxs)):
                ip = inner_product(fns[a], fns[b])
                want = 1 if a == b else 0
                assert isinstance(ip, Cyc), "inner product left exact mode"
                assert ip == want, (idxs[a], idxs[b])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"orthonormality sweep took {elapsed:.1f} s"
    report(1, f"Gram = identity exactly for p in (2,3,5), n in [-2,2], "
              f"m depth <= 2, all j ({elapsed:.1f} s)")


def test_c02_kernel_matches_spectral_eigenvalue():
    worst = 0.0
    for p in (2, 3):
        for alpha in (0.5, 1.0, 2.0):
            for n in range(-2, 3):
                for m in [()] + [(d,) for d in range(1, p)]:
                    for j in range(1, p):
                        f = materialize(p, KozyrevIndex(n, m, j))
                        out = vladimirov_kernel_apply(alpha, f)
                        eig = float(p) ** (alpha * (1 - n))
                        for rep in ball_reps(p, f.support_exponent, f.resolution):
                            got = complex(out.table.get(rep, 0))
                            want = eig * complex(f.table.get(rep, 0))
                            err = abs(got - want)
                            if want != 0:
                                err /= abs(want)
                            worst = max(worst, err)
    assert worst <= 1e-10
    report(2, f"kernel form reproduces p^(a(1-n)) on every cell, "
              f"worst relative error {worst:.2e}")


def test_c03_log_limit_linear():
    p = 2
    window = Window(-6, 6, 0)
    e = WaveletExpansion(
        p, window, {KozyrevIndex(n): Cyc.one(p) for n in range(-5, 5)}
    )
    r3 = log_limit_residual_norm(e, 1e-3)
    r4 = log_limit_residual_norm(e, 1e-4)
    ratio = r3 / r4
    assert 8.0 <= ratio <= 12.0
    report(3, f"(D^a - 1)/(a ln p) -> log_p D linearly, residual ratio {ratio:.3f}")


def test_c04_sl2_exact():
    total = 0
    for p in (2, 3):
        results = check_relations(p, Window(-4, 4, 1), relation_rows("sl2", p))
        assert results
        assert all(r.exact and r.residual == 0.0 for r in results)
        total += sum(r.labels for r in results)
    report(4, f"sl(2) residuals exactly zero on {total} interior basis vectors, "
              f"window n in [-4,4]")


def test_c05_witt_exact():
    results = check_relations(2, Window(-10, 10, 1), relation_rows("witt", 2))
    assert all(r.exact and r.residual == 0.0 for r in results)
    pairs = {r.relation for r in results}
    assert len(pairs) == 49  # every (a, b) with |a|,|b| <= 3
    instances = sum(r.labels for r in results)
    report(5, f"[l_a, l_b] = (a-b) l_(a+b) exactly, {instances} instances "
              f"over all |a|,|b| <= 3")


def test_c06_deformed_commutator():
    for p in (2, 3):
        exact = check_relations(p, Window(-4, 4, 1), relation_rows("deformed", p, [1, 2]))
        deformed = [r for r in exact if r.relation.startswith("deformed")]
        assert deformed
        assert all(r.exact and r.residual == 0.0 for r in deformed)
        floats = [
            r for r in check_relations(p, Window(-4, 4, 1), relation_rows("deformed", p, [0.3]))
            if r.relation.startswith("deformed")
        ]
        assert floats
        assert all(r.residual <= 1e-12 for r in floats)
    report(6, "p^(sa/2) D^a J_s - p^(-sa/2) J_s D^a vanishes: exact for "
              "a in {1,2}, below 1e-12 for a = 0.3")


def test_c07_translation_commutes():
    # the kernel form, floating, depth-1 shifts
    worst = 0.0
    rng = random.Random(2024)
    for p in (2, 3):
        table = {
            rep: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for rep in ball_reps(p, 1, 2)
        }
        f = LocallyConstantFn(p, 1, 2, table)
        for shift in (Fraction(1, p), Fraction(p - 1, p)):
            res = translation_kernel_residual(1.0, f, shift)
            worst = max([worst, *(abs(complex(v)) for v in res.values())])
        psi = materialize(p, KozyrevIndex(0, (), 1))
        res = translation_kernel_residual(1.0, psi, Fraction(1, p))
        worst = max([worst, *(abs(complex(v)) for v in res.values())])
    assert worst <= 1e-12
    report(7, f"D^a commutes with translation: kernel residual {worst:.2e}")


def test_c08_closed_form_oracles():
    checked = 0
    for p in (2, 3):
        for j in range(1, p):
            mother = materialize(p, KozyrevIndex(0, (), j))
            # scaled display vs the scaling route
            for n in range(-2, 4):
                display = closed_form_scaled(p, n, j)
                route = scaled(scale_arg(mother, n), Cyc.half_power(p, -n))
                assert fn_equal(display, route)
                assert fn_equal(display, materialize(p, KozyrevIndex(n, (), j)))
                checked += 1
            # label translation display, m-depth 2 and 3, against evaluation
            for m in enumerate_m_digits(p, 3):
                if len(m) >= 2:
                    for n in range(-2, 3):
                        display = closed_form_label_translated(p, n, m, j)
                        assert fn_equal(display, materialize(p, KozyrevIndex(n, m, j)))
                        checked += 1
            for m0 in range(1, p):
                # label translation display (depth-1 m), any scale
                for n in (-1, 0, 1, 2):
                    display = closed_form_label_translated(p, n, (m0,), j)
                    route = scaled(scale_arg(
                        materialize(p, KozyrevIndex(0, (m0,), j)), n
                    ), Cyc.half_power(p, -n))
                    assert fn_equal(display, route)
                    assert fn_equal(display, materialize(p, KozyrevIndex(n, (m0,), j)))
                    checked += 1
                # scale-then-translate displays: n < 0, n = 1, n >= 2
                b = Fraction(m0, p)
                for n in (-2, -1, 1, 2, 3):
                    display = closed_form_scaled_translated(p, n, m0, j)
                    route = translate(
                        scaled(scale_arg(mother, n), Cyc.half_power(p, -n)), b
                    )
                    assert fn_equal(display, route)
                    checked += 1
    report(8, f"piecewise case tables match evaluate-and-transform on every "
              f"cell, {checked} branch instances, p in (2,3)")


def test_c09_fourier_round_trip():
    for p in (2, 3, 5):
        ind = indicator_fn(p)
        assert fn_equal(fourier(ind), ind)
    rng = random.Random(99)

    def random_fn(p, m, k, nnz=None):
        reps = ball_reps(p, m, k)
        if nnz is not None and nnz < len(reps):
            reps = rng.sample(reps, nnz)
        table = {}
        for rep in reps:
            v = Cyc.rational(p, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            v = v * Cyc.root_of_unity(p, RationalPhase(rng.randint(0, p**2 - 1), p**2))
            if v:
                table[rep] = v
        return LocallyConstantFn(p, m, k, table)

    cases = 0
    # p = 2: dense tables at every shape up to M+K = 6
    for m, k in ((0, 0), (1, 1), (0, 3), (3, 0), (2, 3), (3, 3), (1, 5), (4, 2)):
        f = random_fn(2, m, k)
        assert fn_equal(inverse_fourier(fourier(f)), f)
        cases += 1
    # p = 3: dense through M+K = 4, sparse exact instances at 5 and 6
    for m, k, nnz in ((0, 0, None), (1, 1, None), (2, 2, None), (1, 3, None),
                      (2, 3, 8), (3, 3, 8)):
        f = random_fn(3, m, k, nnz)
        assert fn_equal(inverse_fourier(fourier(f)), f)
        cases += 1
    report(9, f"inverse_fourier(fourier(f)) = f exactly on {cases} tables with "
              f"M+K <= 6; fourier fixes the unit-ball indicator")


def test_c10_monomial_expansion():
    for p in (2, 3, 5):
        levels = 3 if p != 5 else 2
        for degree in range(6):
            for level in range(levels + 1):
                for t in range(p**level):
                    idx = HaarIndex(level, t)
                    closed = monomial_coefficient(p, degree, idx)
                    quad = monomial_coefficient_quadrature(p, degree, idx)
                    assert amp_equal(closed, quad), (p, degree, level, t)
                    if degree == 0:
                        assert not closed
    # levels <= 3 for p = 5 as well, at a single spot-check degree
    for t in (0, 17, 124):
        idx = HaarIndex(3, t)
        assert amp_equal(
            monomial_coefficient(5, 3, idx),
            monomial_coefficient_quadrature(5, 3, idx),
        )
    report(10, "closed-form coefficients equal exact quadrature, degrees <= 5, "
               "levels <= 3, p in (2,3,5); degree 0 vanishes")


def test_c11_lowering_identity():
    count = 0
    for p in (2, 3, 5):
        levels = 3 if p != 5 else 1
        for degree in range(2, 6):
            for level in range(levels + 1):
                for t in range(p**level):
                    assert not verify_lowering(p, degree, HaarIndex(level, t))
                    count += 1
    for t in (0, 30, 124):
        assert not verify_lowering(5, 4, HaarIndex(3, t))
        count += 1
    report(11, f"jump-form derivative equals the lowered moment exactly in "
               f"{count} cases (zero-boundary convention)")


def test_c12_dilatation_identity():
    for p in (2, 3):
        for degree in range(5):
            for alpha in (1, 2):
                rep = verify_dilatation(p, degree, alpha, max_level=3)
                assert rep.passed, rep.failures
    report(12, "coefficient shift-and-scale under x -> p^(-a) x holds exactly, "
               "a in {1,2}, degrees <= 4")


def test_c13_wall_clock(session_start):
    elapsed = time.monotonic() - session_start
    assert elapsed < WALL_CLOCK_BUDGET, f"suite has been running {elapsed:.1f} s"
    report(13, f"suite wall-clock within budget so far ({elapsed:.1f} s < 60 s)")


def _finished_session(monkeypatch, elapsed):
    """The exit status that `pytest_sessionfinish` leaves on a passing
    session that started `elapsed` seconds ago."""
    monkeypatch.setattr(conftest, "SESSION_START", time.monotonic() - elapsed)
    session = SimpleNamespace(exitstatus=pytest.ExitCode.OK)
    conftest.pytest_sessionfinish(session)
    return session.exitstatus


def test_c13_bounds_the_whole_session(monkeypatch):
    # the bound holds at the session's end, not only when C13 runs
    assert _finished_session(monkeypatch, 61.0) == pytest.ExitCode.TESTS_FAILED
    assert _finished_session(monkeypatch, 1.0) == pytest.ExitCode.OK
