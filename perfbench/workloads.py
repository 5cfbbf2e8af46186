"""The benchmark's workloads: seeded inputs, the timed program calls, and
the checks of every output.

Each workload has three steps.  `make_input(rng)` builds one job's input
from a `random.Random` and is not timed.  `run(inp)` makes the program calls
that are timed and returns their outputs.  `check(inp, out)` verifies the
outputs against an oracle and returns the work the job completed; it raises
`CheckError` on a wrong or non-exact output.  The program is reached only
through module attributes (`functions.fourier`, `cli.main`, ...) so that a
traced run sees every call.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import padic_wavelets  # noqa: F401  (the program import timed by setup_s)
from padic_wavelets import exact, functions, haar, operators, wavelets
from padic_wavelets.padic import RationalPhase


class CheckError(Exception):
    """A job's output failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _require_exact(values, what: str) -> None:
    for v in values:
        _require(isinstance(v, exact.Cyc), f"{what}: non-exact value {v!r}")


def _cli():
    # imported on first use: workloads that never call the CLI do not pay
    # for importing click in setup_s
    from padic_wavelets import cli

    return cli


def _call_cli(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _cli().main(argv)
    return code, out.getvalue(), err.getvalue()


def _random_amp(rng, p: int):
    """A small nonzero rational times a p^2-th root of unity, as (mag, phase)."""
    mag = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return mag, Fraction(rng.randrange(p * p), p * p)


def _cyc(p: int, mag: Fraction, phase: Fraction):
    return exact.Cyc.rational(p, mag) * exact.Cyc.root_of_unity(
        p, RationalPhase(phase.numerator, phase.denominator))


def dense_table(rng, p: int, m: int, k: int):
    """Dense exact table on |x| <= p^m at resolution k."""
    unit = Fraction(1, p**m)
    table = {i * unit: _cyc(p, *_random_amp(rng, p)) for i in range(p ** (m + k))}
    return functions.LocallyConstantFn(p, m, k, table)


def mean_zero_cells(rng, p: int, count: int):
    """{cell index: (magnitude > 0, phase)} with cells paired as +v, -v; every
    cell is nonzero when `count` is even."""
    order = list(range(count))
    rng.shuffle(order)
    cells = {}
    for a, b in zip(order[::2], order[1::2]):
        mag, phase = _random_amp(rng, p)
        mag = abs(mag)
        cells[a] = (mag, phase)
        cells[b] = (mag, (phase + Fraction(1, 2)) % 1)
    return cells


def complete_window(m: int, k: int) -> wavelets.Window:
    """The window whose wavelets span the mean-zero tables on |x| <= p^m at
    resolution k."""
    return wavelets.Window(1 - k, m, m + k - 1)


def window_spec(w: wavelets.Window) -> str:
    return f"{w.n_min}:{w.n_max}:{w.m_depth}"


def window_labels(p: int, w: wavelets.Window) -> int:
    return (w.n_max - w.n_min + 1) * p**w.m_depth * (p - 1)


def random_wavelet_index(rng, p: int, max_depth: int):
    depth = rng.randint(0, max_depth)
    digits = [rng.randrange(p) for _ in range(depth)]
    if digits:
        digits[-1] = rng.randint(1, p - 1)
    return wavelets.KozyrevIndex(rng.randint(-2, 2), tuple(digits), rng.randint(1, p - 1))


# -- fourier-roundtrip --------------------------------------------------------


@dataclass(frozen=True)
class FourierRoundtrip:
    """Exact dense round trip plus a sparse forward transform (library API)."""

    p: int = 3
    dense_m: int = 2
    dense_k: int = 2
    sparse_exp: int = 6  # the sparse wavelet sits in a ball of p^sparse_exp cells
    sparse_depth: int = 2
    name: str = "fourier-roundtrip"
    work_unit: str = "transformed cells"

    def make_input(self, rng):
        dense = dense_table(rng, self.p, self.dense_m, self.dense_k)
        idx = random_wavelet_index(rng, self.p, self.sparse_depth)
        w = wavelets.materialize(self.p, idx)
        w = w.with_support(self.sparse_exp - w.resolution)
        return dense, w

    def run(self, inp):
        dense, w = inp
        back = functions.inverse_fourier(functions.fourier(dense))
        return back, functions.fourier(w)

    def check(self, inp, out) -> int:
        dense, w = inp
        back, w_hat = out
        _require_exact(back.table.values(), "inverse_fourier(fourier(f))")
        _require(functions.fn_equal(back, dense, 0.0), "round trip differs from f")
        _require_exact(w_hat.table.values(), "fourier(w)")
        lhs = functions.inner_product(w_hat, w_hat)
        rhs = functions.inner_product(w, w)
        _require_exact((lhs, rhs), "Plancherel norms")
        _require(lhs == rhs, f"Plancherel: {lhs!r} != {rhs!r}")
        cells = self.p ** (self.dense_m + self.dense_k)
        return 2 * cells + self.p**self.sparse_exp


# -- wavelet-roundtrip --------------------------------------------------------


def _cell_key(digits, p: int, support: int) -> Fraction:
    return Fraction(sum(d * p**i for i, d in enumerate(digits)), p**support)


def _reduce(q: Fraction, p: int, resolution: int) -> Fraction:
    """Representative of q + p^resolution Z_p with digits below `resolution`."""
    s = 0
    den = q.denominator
    while den % p == 0:
        den //= p
        s += 1
    if den != 1:
        raise CheckError(f"cell representative {q} has a non-p-power denominator")
    span = resolution + s
    return Fraction(q.numerator % p**span, p**s) if span > 0 else Fraction(0)


def decode_table(data: dict) -> tuple[int, int, int, dict]:
    """(prime, support, resolution, {representative: complex}) of a table file."""
    p, m, k = data["prime"], data["support_exponent"], data["resolution_exponent"]
    values = {}
    for cell in data["cells"]:
        if "mag_num" in cell:
            mag = Fraction(cell["mag_num"], cell["mag_den"])
            v = float(mag) * cmath.exp(2j * math.pi * cell["phase_num"] / cell["phase_den"])
        else:
            v = complex(cell["re"], cell["im"])
        values[_cell_key(cell["digits"], p, m)] = v
    return p, m, k, values


def table_value(table, p: int, support: int, resolution: int, q: Fraction) -> complex:
    if q != 0:
        den, s = q.denominator, 0
        while den % p == 0:
            den //= p
            s += 1
        if s > support:
            return 0j
    return table.get(_reduce(q, p, resolution), 0j)


@dataclass(frozen=True)
class WaveletRoundtrip:
    """CLI `analyze` then `synthesize` of a dense mean-zero exact table."""

    p: int = 2
    m: int = 3
    k: int = 3
    tolerance: float = 1e-9
    name: str = "wavelet-roundtrip"
    work_unit: str = "wavelet coefficients"
    workdir: str = "."

    @property
    def window(self) -> wavelets.Window:
        return complete_window(self.m, self.k)

    def make_input(self, rng):
        p, m, k = self.p, self.m, self.k
        cells = mean_zero_cells(rng, p, p ** (m + k))
        records = []
        expected = {}
        for i in sorted(cells):
            mag, phase = cells[i]
            digits = [(i // p**e) % p for e in range(m + k)]
            records.append({
                "digits": digits,
                "mag_num": mag.numerator, "mag_den": mag.denominator,
                "phase_num": phase.numerator, "phase_den": phase.denominator,
            })
            expected[Fraction(i, p**m)] = float(mag) * cmath.exp(2j * math.pi * phase)
        paths = {name: os.path.join(self.workdir, f"{name}.json")
                 for name in ("f", "e", "back")}
        for name in ("e", "back"):
            if os.path.exists(paths[name]):
                os.remove(paths[name])
        with open(paths["f"], "w") as fh:
            json.dump({"prime": p, "support_exponent": m, "resolution_exponent": k,
                       "cells": records}, fh)
        return expected, paths

    def run(self, inp):
        _, paths = inp
        analyzed = _call_cli(["--prime", str(self.p), "--window", window_spec(self.window),
                              "analyze", paths["f"], "--output", paths["e"]])
        synthesized = _call_cli(["synthesize", paths["e"], "--output", paths["back"]])
        return analyzed, synthesized

    def check(self, inp, out) -> int:
        expected, paths = inp
        (code_a, _, err_a), (code_s, _, err_s) = out
        _require(code_a == 0, f"analyze exited {code_a}: {err_a.strip()}")
        _require(code_s == 0, f"synthesize exited {code_s}: {err_s.strip()}")
        lines = err_a.splitlines()
        _require("mean component: 0+0j" in lines, f"analyze mean not exactly 0: {err_a!r}")
        _require("round-trip residual norm^2: 0" in lines,
                 f"analyze residual not exactly 0: {err_a!r}")
        with open(paths["back"]) as fh:
            p, m, k, back = decode_table(json.load(fh))
        _require(p == self.p, f"synthesize changed the prime to {p}")
        for q in set(expected) | set(back):
            want = table_value(expected, self.p, self.m, self.k, q)
            got = table_value(back, p, m, k, q)
            _require(abs(got - want) <= self.tolerance,
                     f"back.json differs from f at {q}: {got} != {want}")
        return window_labels(self.p, self.window)


# -- relation-suite -----------------------------------------------------------


@dataclass(frozen=True)
class RelationSuite:
    """`check algebra`, the exact kernel form of D^(1/2), and Haar monomial
    coefficients against quadrature."""

    p: int = 3
    window: str = "-3:3:1"
    alphas: tuple = ("0.5", "1", "0.3")
    kernel_extra_depth: int = 2
    haar_primes: tuple = (2, 3)
    haar_max_degree: int = 3
    haar_max_level: int = 2
    name: str = "relation-suite"
    work_unit: str = "relations + kernel cells + Haar coefficients"

    @property
    def kernel_cells(self) -> int:
        # a wavelet of m-depth 1 lives on p^(2 + extra_depth) cells
        return self.p ** (2 + self.kernel_extra_depth)

    def make_input(self, rng):
        argv = ["--prime", str(self.p), "--window", self.window, "--seed",
                str(rng.randrange(2**31)), "check", "algebra", "--relation", "all"]
        for a in self.alphas:
            argv += ["--alpha", a]
        idx = wavelets.KozyrevIndex(rng.randint(-2, 2), (rng.randint(1, self.p - 1),),
                                    rng.randint(1, self.p - 1))
        w = wavelets.materialize(self.p, idx, extra_depth=self.kernel_extra_depth)
        hp = rng.choice(self.haar_primes)
        degree = rng.randint(0, self.haar_max_degree)
        labels = [haar.HaarIndex(level, t)
                  for level in range(self.haar_max_level + 1) for t in range(hp**level)]
        return argv, idx, w, hp, degree, labels

    def run(self, inp):
        argv, _, w, hp, degree, labels = inp
        algebra = _call_cli(argv)
        kernel = operators.vladimirov_kernel_apply(Fraction(1, 2), w)
        coefficients = [haar.monomial_coefficient(hp, degree, h) for h in labels]
        return algebra, kernel, coefficients

    def check(self, inp, out) -> int:
        _, idx, w, hp, degree, labels = inp
        (code, stdout, stderr), kernel, coefficients = out
        _require(code == 0, f"check algebra exited {code}: {stderr.strip()}")
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        words = last.split()
        _require(len(words) == 5 and words[0] == "all" and words[2:] ==
                 ["relation", "instances", "passed"] and words[1].isdigit()
                 and int(words[1]) > 0, f"check algebra summary: {last!r}")
        relations = int(words[1])

        eigenvalue = exact.Cyc.half_power(self.p, 1 - idx.n)  # p^((1-n)/2)
        _require_exact(kernel.table.values(), "vladimirov_kernel_apply")
        zero = exact.Cyc.zero(self.p)
        for rep in set(kernel.table) | set(w.table):
            got = kernel.table.get(rep, zero)
            want = w.table.get(rep, zero) * eigenvalue
            _require(got == want, f"kernel D^(1/2) at {rep}: {got!r} != {want!r}")

        for h, c in zip(labels, coefficients):
            _require_exact((c,), f"monomial_coefficient {h}")
            oracle = haar.monomial_coefficient_quadrature(hp, degree, h)
            _require(c == oracle, f"monomial coefficient {hp} {degree} {h}: {c!r} != {oracle!r}")
        return relations + self.kernel_cells + len(coefficients)


# -- sizes ----------------------------------------------------------------------

STANDARD = {
    "fourier-roundtrip": FourierRoundtrip(),
    "wavelet-roundtrip": WaveletRoundtrip(),
    "relation-suite": RelationSuite(),
}

TINY = {
    "fourier-roundtrip": FourierRoundtrip(dense_m=1, dense_k=1, sparse_exp=3, sparse_depth=1),
    "wavelet-roundtrip": WaveletRoundtrip(m=1, k=2),
    "relation-suite": RelationSuite(window="-1:1:1", alphas=("0.5",), kernel_extra_depth=0,
                                    haar_max_level=1),
}

SIZES = {"standard": STANDARD, "tiny": TINY}


def workload(name: str, size: str = "standard", workdir: str = "."):
    w = SIZES[size][name]
    if isinstance(w, WaveletRoundtrip):
        w = dataclasses.replace(w, workdir=workdir)
    return w


# -- size ladders -------------------------------------------------------------
#
# One timed pass per rung; the fitted slope of log(time) against log(N) is the
# growth exponent.  Rung inputs come from the run's seed.

LADDERS = {
    "standard": {
        "functions.fourier.n_exponent": (3, (3, 4, 5)),
        "wavelets.analyze.n_exponent": (2, (4, 5, 6, 7)),
        "operators.kernel.n_exponent": (3, (3, 4, 5)),
    },
    "tiny": {
        "functions.fourier.n_exponent": (3, (1, 2)),
        "wavelets.analyze.n_exponent": (2, (2, 3)),
        "operators.kernel.n_exponent": (3, (2, 3)),
    },
}


def _fourier_rung(rng, p: int, exponent: int):
    m = exponent // 2
    f = dense_table(rng, p, m, exponent - m)
    return lambda: functions.fourier(f)


def _analyze_rung(rng, p: int, exponent: int):
    k = (exponent + 1) // 2
    m = exponent - k
    unit = Fraction(1, p**m)
    table = {i * unit: _cyc(p, *amp)
             for i, amp in mean_zero_cells(rng, p, p**exponent).items()}
    f = functions.LocallyConstantFn(p, m, k, table)
    window = complete_window(m, k)
    return lambda: wavelets.analyze(f, window)


def _kernel_rung(rng, p: int, exponent: int):
    idx = wavelets.KozyrevIndex(0, (rng.randint(1, p - 1),), rng.randint(1, p - 1))
    w = wavelets.materialize(p, idx, extra_depth=exponent - 2)
    return lambda: operators.vladimirov_kernel_apply(Fraction(1, 2), w)


_RUNGS = {
    "functions.fourier.n_exponent": _fourier_rung,
    "wavelets.analyze.n_exponent": _analyze_rung,
    "operators.kernel.n_exponent": _kernel_rung,
}


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(sizes)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def run_ladders(rng, size: str = "standard") -> dict:
    """{metric: (exponent, [(N, seconds), ...])} from one timed pass per rung."""
    results = {}
    for metric, (p, exponents) in LADDERS[size].items():
        rungs = []
        for e in exponents:
            call = _RUNGS[metric](rng, p, e)
            start = time.perf_counter()
            call()
            rungs.append((p**e, time.perf_counter() - start))
        results[metric] = (fit_exponent([n for n, _ in rungs], [t for _, t in rungs]), rungs)
    return results
