"""Exit codes, determinism and file round trips of the command line."""

import collections
import dataclasses
import io
import json
import math
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padic_wavelets import cli, functions, haar, operators, wavelets
from padic_wavelets.cli import fmt, main, parse_index, parse_window, to_json
from padic_wavelets.errors import OutputRangeError
from padic_wavelets.exact import Cyc
from padic_wavelets.functions import LocallyConstantFn, fn_from_json, fn_equal, fn_to_json
from padic_wavelets.wavelets import KozyrevIndex, Window, analyze, materialize

import oracles


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -------------------------------------------------------------------


def test_parse_index_forms():
    assert parse_index("0::1") == KozyrevIndex(0, (), 1)
    assert parse_index("-2:1,0,2:3") == KozyrevIndex(-2, (1, 0, 2), 3)
    import click

    with pytest.raises(click.UsageError):
        parse_index("nope")


def test_parse_window():
    assert parse_window("-2:2") == (-2, 2, 1)
    assert parse_window("-4:4:2") == (-4, 4, 2)
    import click

    with pytest.raises(click.UsageError):
        parse_window("1")


# -- wavelet commands ------------------------------------------------------------


def test_wavelet_table_csv(capsys):
    code, out, _ = run(
        capsys, ["--format", "csv", "wavelet", "table", "--index", "0::1"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,cell_label,norm_exponent,magnitude,phase_num,phase_den"
    assert len(lines) == 3
    # mother at p=2: value 1 inside, phase 1/2 (i.e. -1) on the unit sphere
    assert lines[1].endswith(",1,0,1")
    assert lines[2].endswith(",1,1,2")


def test_wavelet_table_scaled_support(capsys):
    code, out, _ = run(capsys, ["wavelet", "table", "--index", "1::1"])
    payload = json.loads(out)
    assert code == 0
    digits = [tuple(c["digits"]) for c in payload[0]["cells"]]
    # support grows to the ball |x| <= p: one digit at exponent -1
    assert sorted(digits) == [(0,), (1,)]


def test_wavelet_table_empty_index_list(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "wavelet", "table"])
    assert code == 0
    assert out.strip() == "index,cell_label,norm_exponent,magnitude,phase_num,phase_den"


def test_wavelet_eval(capsys):
    code, out, _ = run(
        capsys, ["--prime", "2", "wavelet", "eval", "--index", "0::1", "--xi", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["re"] == -1.0 and data["im"] == 0.0
    assert data["exact"]["phase"] == "1/2"


def test_wavelet_eval_readme_example(capsys):
    code, out, err = run(
        capsys, ["--prime", "3", "wavelet", "eval", "--index", "0:1:1", "--xi", "1/3"])
    assert (code, err) == (0, "")
    assert out == """{
  "re": 0.766044443118978,
  "im": 0.6427876096865393,
  "exact": {
    "magnitude": "1/1",
    "phase": "1/9"
  }
}
"""


def test_wavelet_eval_reads_every_digit_of_xi(capsys):
    # xi = 3: the indicator of -2:1:1 holds, and the character reads the
    # digit at exponent 2, beyond the one digit that --precision 1 keeps
    code, out, err = run(capsys, ["--prime", "3", "--precision", "1", "wavelet", "eval",
                                  "--index", "-2:1:1", "--xi", "3"])
    assert (code, err) == (0, "")
    exact = json.loads(out)["exact"]
    assert exact == {"magnitude": "3/1", "phase": "1/9"}


@pytest.mark.parametrize("p, index, xi", [
    (2, "0:1:1", "-5/2"),
    (2, "-2::1", "12/7"),
    (2, "-3:1:1", "-28/5"),
    (3, "-2:1:1", "3/7"),
    (3, "0:2:2", "-7/3"),
    (3, "0::2", "2/7"),
    (5, "0:3:4", "-2/5"),
    (5, "-2::3", "50/7"),
    (5, "1:4,1:2", "21/125"),
])
def test_wavelet_eval_ignores_precision(capsys, p, index, xi):
    # the value is that at the exact rational, so the digits --precision
    # keeps do not change a byte of it; each xi lies in the support
    argv = ["wavelet", "eval", "--index", index, "--xi", xi]
    code, default, err = run(capsys, ["--prime", str(p), *argv])
    assert (code, err) == (0, "")
    value = json.loads(default)
    assert complex(value["re"], value["im"]) != 0
    assert run(capsys, ["--prime", str(p), "--precision", "1", *argv]) == (0, default, "")


def test_xi_with_zero_denominator_is_usage_error(capsys):
    for argv in (["wavelet", "eval", "--index", "0::1", "--xi", "1/0"],
                 ["monna-map", "--xi", "1/0"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: '1/0' is not a rational number")


def test_usage_error_is_exit_one(capsys):
    code, _, err = run(capsys, ["wavelet", "table", "--index", "zzz"])
    assert code == 1
    assert "usage error" in err


# -- function files -----------------------------------------------------------------


@pytest.fixture
def psi_file(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(fn_to_json(materialize(2, KozyrevIndex(0)))))
    return path


def test_analyze_synthesize_round_trip(capsys, tmp_path, psi_file):
    code, out, _ = run(capsys, ["--window", "-1:1:1", "analyze", str(psi_file)])
    assert code == 0
    expansion = json.loads(out)
    assert expansion["coefficients"] == [
        {"n": 0, "m_digits": [], "j": 1,
         "mag_num": 1, "mag_den": 1, "phase_num": 0, "phase_den": 1}
    ]
    epath = tmp_path / "e.json"
    epath.write_text(out)
    code, out, _ = run(capsys, ["synthesize", str(epath)])
    assert code == 0
    rebuilt = fn_from_json(json.loads(out))
    assert fn_equal(rebuilt, materialize(2, KozyrevIndex(0)))


# the four-cell p = 2 table of the README round trip
_README_TABLE = {"prime": 2, "support_exponent": 1, "resolution_exponent": 1, "cells": [
    {"digits": [0, 0], "mag_num": 1, "mag_den": 2, "phase_num": 0, "phase_den": 1},
    {"digits": [1, 0], "mag_num": 1, "mag_den": 2, "phase_num": 1, "phase_den": 2},
    {"digits": [0, 1], "mag_num": 3, "mag_den": 4, "phase_num": 1, "phase_den": 4},
    {"digits": [1, 1], "mag_num": 3, "mag_den": 4, "phase_num": 3, "phase_den": 4}]}


def test_readme_round_trip_bytes(capsys, tmp_path):
    # back.json repeats each value of f on the four cells below its cell, as
    # the floats of the exact sums (with their rounding residue)
    f, e, back = (tmp_path / name for name in ("f.json", "e.json", "back.json"))
    f.write_text(json.dumps(_README_TABLE))
    assert run(capsys, ["--window", "-2:2:1", "analyze", str(f), "--output", str(e)])[0] == 0
    assert run(capsys, ["synthesize", str(e), "--output", str(back)])[0] == 0
    values = {(0, 0): (0.5, 5.551115123125783e-17),
              (1, 0): (-0.5, -5.551115123125783e-17),
              (0, 1): (8.326672684688674e-17, 0.75),
              (1, 1): (-8.326672684688674e-17, -0.75)}
    cells = [{"digits": [d0, d1, d2, d3], "re": values[d0, d1][0], "im": values[d0, d1][1]}
             for d3 in (0, 1) for d2 in (0, 1) for d1 in (0, 1) for d0 in (0, 1)]
    want = {"prime": 2, "support_exponent": 1, "resolution_exponent": 3, "cells": cells}
    assert back.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()


def test_analyze_reports_mean_component(capsys, tmp_path):
    from padic_wavelets.exact import Cyc

    path = tmp_path / "omega.json"
    path.write_text(json.dumps(fn_to_json(oracles.indicator_fn(2))))
    code, _, err = run(capsys, ["--window", "-1:1:1", "analyze", str(path)])
    assert code == 0
    assert "mean component: 1" in err
    assert "residual norm^2: 0.5" in err


def test_in_process_calls_free_their_streams(tmp_path):
    # each call writes stdout and stderr into fresh streams; once the caller
    # drops them, none may stay alive (click caches a stream it finds by
    # itself in a map that holds the stream as its own value)
    import gc
    import io
    import weakref
    from contextlib import redirect_stderr, redirect_stdout

    path = tmp_path / "f.json"
    path.write_text(json.dumps(_README_TABLE))
    refs = []
    for _ in range(50):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["--window", "-2:2:1", "analyze", str(path)]) == 0
        assert out.getvalue() and err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_fourier_round_trip(capsys, tmp_path, psi_file):
    code, out, _ = run(capsys, ["fourier", str(psi_file)])
    assert code == 0
    fpath = tmp_path / "ft.json"
    fpath.write_text(out)
    code, out, _ = run(capsys, ["fourier", "--inverse", str(fpath)])
    assert code == 0
    assert fn_equal(fn_from_json(json.loads(out)), materialize(2, KozyrevIndex(0)))


FOURIER_GOLDEN = json.loads((Path(__file__).parent / "fourier_cli_golden.json").read_text())


@pytest.mark.parametrize("case", FOURIER_GOLDEN,
                         ids=lambda case: f"{case['name']} {' '.join(case['argv'])}")
def test_fourier_stdout_is_golden(capsys, tmp_path, case):
    # stdout recorded from the per-output-cell character sum, and for the
    # two wavelets widened to 729 and 256 cells, which now take the orbit
    # route, and the two dense tables, from the radix-p pass.  Of those
    # two, the p = 3 table at level M+K (T = 2N terms, B = N orbits) still
    # takes the radix-p pass, and the p = 2 table at level 5 takes the
    # orbit route (B = 80 of N = 256).  The inverse of r(v_3(k))
    # zeta_81^(2k), one phase per cell and equivariant under every unit
    # = 1 mod 3, takes the trace route at L = 1.  The six cases with M < 0
    # or K < 0, recorded before the writer took digits from cell indices,
    # read or write a table keyed i * p^|M|.  The last two, a rational
    # times a top-block phase k/3^4 in each of N = 27 cells, fold to
    # T = 2N terms above level M+K and take the radix-p pass, one tree per
    # residue mod 3 (two here); their stdout is also the per-cell sum's.
    # An exact table is written byte for byte as then (the
    # chirp's transform is sqrt(5) times a phase in every cell).  A sqrt(p)
    # wavelet can only be read as floats, and a float table may differ in
    # its last bits
    path = tmp_path / "f.json"
    path.write_text(json.dumps(case["input"]))
    code, out, _ = run(capsys, case["argv"] + [str(path)])
    assert code == case["exit"]
    if case["exact"]:
        assert out == case["stdout"]
    else:
        got, want = json.loads(out), json.loads(case["stdout"])
        assert {k: v for k, v in got.items() if k != "cells"} == \
            {k: v for k, v in want.items() if k != "cells"}
        assert fn_equal(fn_from_json(got), fn_from_json(want), 1e-12)


ANALYZE_GOLDEN = json.loads((Path(__file__).parent / "analyze_cli_golden.json").read_text())


@pytest.mark.parametrize("case", ANALYZE_GOLDEN,
                         ids=lambda case: f"{case['name']} {' '.join(case['argv'])}")
def test_analyze_and_synthesize_output_is_golden(capsys, tmp_path, case):
    # stdout, stderr and exit code of `analyze` on the case's table, and of
    # `synthesize` on that stdout, recorded when `analyze` still summed the
    # children of a label as `Cyc`s, and the last two, whose synthesized
    # tables have M < 0, when the codec still keyed cells by rationals;
    # byte for byte, floats included
    f, e = tmp_path / "f.json", tmp_path / "e.json"
    f.write_text(json.dumps(case["input"]))
    code, out, err = run(capsys, case["argv"] + [str(f)])
    assert {"exit": code, "stdout": out, "stderr": err} == case["analyze"]
    e.write_text(out)
    code, out, err = run(capsys, ["synthesize", str(e)])
    assert {"exit": code, "stdout": out, "stderr": err} == case["synthesize"]


def test_malformed_json_is_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "line" in err
    bad.write_bytes(b'\xff{"prime": 2}')
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert err.startswith("input error: ") and "utf-8" in err


def test_missing_field_is_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"prime": 2, "cells": []}))
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 1


def _cell(digits, mag=1):
    return {"digits": digits, "mag_num": mag, "mag_den": 1, "phase_num": 0, "phase_den": 1}


@pytest.mark.parametrize("cells, reason", [
    ([_cell([2])], "not all in [0, 2)"),
    ([_cell([-1])], "not all in [0, 2)"),
    ([_cell([1, 1, 1])], "outside the ball"),
    ([_cell([1]), _cell([1], 5)], "repeat an earlier cell"),
    ([_cell([7]), _cell([1]), _cell([1], 5)], "not all in [0, 2)"),
    ([_cell([1], 0), _cell([1], 5)], "repeat an earlier cell"),
    ([_cell({})], "are not a list"),
    ([_cell("")], "are not a list"),
])
def test_cell_outside_ball_or_repeated_is_exit_one(capsys, tmp_path, cells, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"prime": 2, "support_exponent": 0, "resolution_exponent": 1, "cells": cells}))
    code, _, err = run(capsys, ["fourier", str(bad)])
    assert code == 1
    assert reason in err


@pytest.mark.parametrize("fields, reason", [
    ({"mag_den": 0}, "magnitude denominator is zero"),
    ({"phase_num": 1, "phase_den": 5}, "not a p-power root of unity"),
])
def test_malformed_amplitude_is_exit_one(capsys, tmp_path, fields, reason):
    # p = 3 allows phase denominators 3^t and 2*3^t, so 1/5 has no exact value
    record = dict(_cell([0]), **fields)
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(
        {"prime": 3, "support_exponent": 0, "resolution_exponent": 1,
         "cells": [record]}))
    expansion_path = tmp_path / "e.json"
    expansion_path.write_text(json.dumps(
        {"prime": 3, "window": {"n_min": -1, "n_max": 1, "m_depth": 1},
         "coefficients": [dict(record, n=0, m_digits=[], j=1)]}))
    for args in (["fourier", str(fn_path)], ["synthesize", str(expansion_path)]):
        code, out, err = run(capsys, ["--prime", "3"] + args)
        assert code == 1, args
        assert out == ""
        assert reason in err


def _coefficient(n, m_digits, mag):
    return {"n": n, "m_digits": m_digits, "j": 1,
            "mag_num": mag, "mag_den": 1, "phase_num": 0, "phase_den": 1}


@pytest.mark.parametrize("coefficients, reason", [
    ([_coefficient(0, [], 1), _coefficient(0, [], 5)], "repeats an earlier label"),
    ([_coefficient(2, [], 1)], "outside the window"),
    ([_coefficient(0, [1, 1], 1)], "outside the window"),
    ([_coefficient(0, [], 0), _coefficient(0, [], 5)], "repeats an earlier label"),
])
def test_bad_expansion_label_is_exit_one(capsys, tmp_path, coefficients, reason):
    bad = tmp_path / "e.json"
    bad.write_text(json.dumps(
        {"prime": 2, "window": {"n_min": -1, "n_max": 1, "m_depth": 1},
         "coefficients": coefficients}))
    code, out, err = run(capsys, ["synthesize", str(bad)])
    assert code == 1
    assert out == ""
    assert reason in err


def test_zero_float_cell_leaves_the_transform_exact(capsys, tmp_path):
    # a stored float zero would send the whole transform to floats
    path = tmp_path / "f.json"
    zero = {"digits": [1], "re": 0.0, "im": 0.0}
    path.write_text(json.dumps({"prime": 2, "support_exponent": 0, "resolution_exponent": 1,
                                "cells": [_cell([0], 3), zero]}))
    code, out, _ = run(capsys, ["fourier", str(path)])
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [(c["mag_num"], c["mag_den"]) for c in cells] == [(3, 2), (3, 2)]


_FN = {"prime": 2, "support_exponent": 1, "resolution_exponent": 1, "cells": []}
_EXPANSION = {"prime": 2, "window": {"n_min": -1, "n_max": 1, "m_depth": 1},
              "coefficients": []}


@pytest.mark.parametrize("command, record", [
    ("fourier", dict(_FN, support_exponent=1.5)),
    ("fourier", dict(_FN, support_exponent="a")),
    ("fourier", dict(_FN, support_exponent=None)),
    ("fourier", dict(_FN, resolution_exponent=True)),
    ("fourier", dict(_FN, prime=2.0)),
    ("fourier", dict(_FN, cells=[_cell([True, 0])])),
    ("fourier", dict(_FN, cells=[_cell([1.0, 0])])),
    ("fourier", dict(_FN, cells=5)),
    ("synthesize", dict(_EXPANSION, coefficients=[dict(_coefficient(0, [1], 1), n=0.5)])),
    ("synthesize", dict(_EXPANSION, coefficients=[dict(_coefficient(0, [1], 1), j=True)])),
    ("synthesize", dict(_EXPANSION, coefficients=[_coefficient(0, [True], 1)])),
    ("synthesize", dict(_EXPANSION, window={"n_min": 0.5, "n_max": 1, "m_depth": 1})),
    ("synthesize", dict(_EXPANSION, window={"n_min": -1, "n_max": 1, "m_depth": False})),
    ("synthesize", dict(_EXPANSION, prime=True)),
    # a cell or coefficient value: a bool is not a JSON number, and a value
    # must be finite
    ("fourier", dict(_FN, cells=[dict(_cell([1, 0]), mag_num=True)])),
    ("fourier", dict(_FN, cells=[dict(_cell([1, 0]), mag_den=True)])),
    ("fourier", dict(_FN, cells=[dict(_cell([1, 0]), phase_num=True)])),
    ("fourier", dict(_FN, cells=[dict(_cell([1, 0]), phase_den=True)])),
    ("fourier", dict(_FN, cells=[{"digits": [1, 0], "re": True, "im": 0.0}])),
    ("fourier", dict(_FN, cells=[{"digits": [1, 0], "re": 0.5, "im": False}])),
    ("analyze", dict(_FN, cells=[{"digits": [1, 0], "re": math.nan, "im": 0.0}])),
    ("fourier", dict(_FN, cells=[{"digits": [1, 0], "re": 0.5, "im": math.inf}])),
    ("synthesize", dict(_EXPANSION, coefficients=[dict(_coefficient(0, [1], 1), mag_num=True)])),
    ("synthesize", dict(_EXPANSION, coefficients=[
        {"n": 0, "m_digits": [1], "j": 1, "re": -math.inf, "im": 0.0}])),
    ("synthesize", dict(_EXPANSION, coefficients=[
        {"n": 0, "m_digits": [1], "j": 1, "re": 1.0, "im": True}])),
])
def test_non_integer_field_is_exit_one(capsys, tmp_path, command, record):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, [command, str(path)])
    assert code == 1
    assert out == ""
    assert "input error" in err


def test_cap_exceeded_is_exit_three(capsys, tmp_path, psi_file):
    code, _, err = run(capsys, ["--cap", "2", "--window", "-3:3:1", "analyze", str(psi_file)])
    assert code == 3
    assert "cap" in err
    # four cells, so the transform's output grid is over the cap as well
    path = tmp_path / "psi4.json"
    path.write_text(json.dumps(fn_to_json(materialize(2, KozyrevIndex(0), extra_depth=1))))
    code, out, err = run(capsys, ["--cap", "2", "fourier", str(path)])
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_huge_declared_size_is_exit_three(capsys, tmp_path):
    # 3^100000 cells: decided from the exponent, never printed in decimal
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"prime": 3, "support_exponent": 100000,
                                "resolution_exponent": 0, "cells": []}))
    code, out, err = run(capsys, ["--prime", "3", "fourier", str(path)])
    assert (code, out) == (3, "")
    assert err == "resource cap: enumeration of 3^100000 cells exceeds the cap of 1000000\n"


def test_huge_resolution_analyze_is_exit_three(capsys, tmp_path):
    # the cap is checked on load, before the cell measure p^(-K) is built
    path = tmp_path / "fine.json"
    path.write_text(json.dumps({
        "prime": 3, "support_exponent": 0, "resolution_exponent": 10**9,
        "cells": [{"digits": [1], "mag_num": 1, "mag_den": 1, "phase_num": 0, "phase_den": 1}],
    }))
    code, out, err = run(capsys, ["--prime", "3", "analyze", str(path)])
    assert (code, out) == (3, "")
    assert err == "resource cap: enumeration of 3^1000000000 cells exceeds the cap of 1000000\n"


def test_mean_beyond_the_float_range_is_exit_two(capsys, tmp_path):
    # one cell of measure 3^2999999: its exact mean has no float value
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "prime": 3, "support_exponent": 3000000, "resolution_exponent": -2999999,
        "cells": [{"digits": [1], "mag_num": 1, "mag_den": 1, "phase_num": 0, "phase_den": 1}],
    }))
    code, out, err = run(capsys, ["--prime", "3", "--window", "0:1:0", "analyze", str(path)])
    assert code == 2
    assert json.loads(out)["coefficients"] == []
    assert err == "numeric failure: exact value lies beyond the float range\n"
    # the csv table prints magnitudes as floats: 2^1500 has none
    code, out, err = run(capsys, ["--format", "csv", "wavelet", "table", "--index", "-3000::1"])
    assert (code, out) == (2, "")
    assert err == "numeric failure: exact value lies beyond the float range\n"


def _over_digit_limit(digits: int) -> bool:
    """Whether this Python refuses to convert an int of `digits` digits to or
    from text (3.10 before 3.10.7 has no such limit; 0 turns it off)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return 0 < limit < digits


def test_integer_beyond_the_digit_limit_is_exit_two_on_output(capsys):
    # psi at n = -30000, p = 2 has the exact magnitude 2^15000 (4516 digits)
    code, out, err = run(capsys, ["wavelet", "table", "--index", "-30000::1"])
    if _over_digit_limit(4516):
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: cannot write the result: ")
    else:
        assert code == 0
        assert json.loads(out)[0]["cells"][0]["mag_num"] == 2**15000
    # at n = 30000 the magnitude 2^-15000 has a float (0.0), but not its text
    code, out, err = run(capsys, ["wavelet", "eval", "--index", "30000::1", "--xi", "0"])
    assert code == (2 if _over_digit_limit(4516) else 0)
    # 2^14300 labels per scale (4305 digits): check algebra fails on the
    # count before it writes any relation line
    code, out, err = run(capsys, ["--prime", "2", "--window", "-1:1:14300", "check",
                                  "algebra", "--relation", "sl2"])
    if _over_digit_limit(4305):
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: cannot write the result: ")
    else:
        assert code == 0
        assert out.splitlines()[-1] == f"all {5 * 2**14300} relation instances passed"


_JSON_LEAVES = (
    st.none() | st.booleans() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers() | st.integers(10**4290, 10**4310).map(lambda n: n * (-1) ** n)
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(st.integers(), max_size=6)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=16,
)


@given(payload=_JSON_PAYLOADS)
@example(payload={"cells": [], "empty": {}, "digits": [0, 1, 1], "x": [[], {}, [[]]]})
@example(payload=["\u00e9\u4e2d\U0001f600\ud800", "\"\\\n\t\x00", True, False, None])
@example(payload=[math.nan, math.inf, -math.inf, -0.0, 1e-300, 5.551115123125783e-17])
def test_to_json_writes_the_bytes_of_json_dumps(payload):
    try:
        want = json.dumps(payload, indent=2)
    except ValueError:
        # an int beyond the interpreter's int-to-str digit limit
        with pytest.raises(OutputRangeError):
            to_json(payload)
    else:
        assert to_json(payload) == want


def test_integer_beyond_the_digit_limit_is_exit_one_on_input(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(
        '{"prime": 2, "support_exponent": 0, "resolution_exponent": 0, "cells": ['
        '{"digits": [], "mag_num": 1' + "0" * 4999 + ', "mag_den": 1,'
        ' "phase_num": 0, "phase_den": 1}]}')
    code, out, err = run(capsys, ["fourier", str(path)])
    if _over_digit_limit(5000):
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {path}: ")
    else:
        assert code == 0


def test_sparse_analyze_over_a_large_ball_needs_the_cap(capsys, tmp_path):
    # analyze bounds the declared p^(M+K) cells, as fourier does, however
    # few cells the table lists; a raised --cap admits the table
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({
        "prime": 2, "support_exponent": 30, "resolution_exponent": 0,
        "cells": [{"digits": [1], "mag_num": 1, "mag_den": 1, "phase_num": 0, "phase_den": 1}],
    }))
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out) == (3, "")
    assert err == "resource cap: enumeration of 1073741824 cells exceeds the cap of 1000000\n"
    code, out, err = run(capsys, ["--cap", str(2**30), "analyze", str(path)])
    assert code == 0
    assert json.loads(out)["prime"] == 2
    assert err == "mean component: 1+0j\nround-trip residual norm^2: 1\n"


def test_deterministic_output(capsys, psi_file):
    args = ["--window", "-2:2:1", "analyze", str(psi_file)]
    first = run(capsys, args)
    second = run(capsys, args)
    assert first == second


# -- the analyze residual by Parseval --------------------------------------------


def _random_table(p, m, k, rng, exact, phase_levels):
    """About 60% of the p^(M+K) cells: exact magnitudes times phases k/p^t,
    t in `phase_levels` (at odd p some k/(2p^t)), or floats."""
    cells = []
    for i in range(p ** (m + k)):
        if rng.random() < 0.6:
            cell = {"digits": [i // p**t % p for t in range(m + k)]}
            if exact:
                den = p ** rng.choice(phase_levels) * (2 if p != 2 and rng.random() < 0.3 else 1)
                cell.update(mag_num=rng.randint(1, 4), mag_den=rng.randint(1, 3),
                            phase_num=rng.randrange(den), phase_den=den)
            else:
                cell.update(re=rng.uniform(-1, 1), im=rng.uniform(-1, 1))
            cells.append(cell)
    return {"prime": p, "support_exponent": m, "resolution_exponent": k, "cells": cells}


def _analyze_stderr(data, window_spec):
    """Exit code and stderr of an in-process `analyze` of the table `data`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["--prime", str(data["prime"]), "--window", window_spec,
                         "analyze", str(path)])
    return code, err.getvalue()


@given(
    p=st.sampled_from((2, 3, 5)),
    exact=st.booleans(),
    fine_phases=st.booleans(),
    seed=st.integers(0, 10**6),
)
@example(p=2, exact=True, fine_phases=True, seed=0)  # window -4:0:2 on K = 2
@example(p=5, exact=True, fine_phases=False, seed=135)  # window -1:1:1 on K = 1
@example(p=3, exact=False, fine_phases=False, seed=30)  # window -5:-2:1 on K = 3
def test_analyze_residual_matches_the_synthesis_oracle(p, exact, fine_phases, seed):
    # M <= 2, K <= 3, m-depth <= 2, and windows down to n_min = -K - 2,
    # finer than the table's cells; the oracle's table of p^(S + R) cells,
    # S its support and R = max(K, 1 - n_min), is kept small.  At p = 2 with
    # `fine_phases` the values lie at levels 3 and 4, where the sqrt(2) of an
    # odd scale has more than one (a, b) split
    rng = random.Random(seed)
    budget = {2: 11, 3: 7, 5: 5}[p]
    while True:
        m, k = rng.randint(-1, 2), rng.randint(-1, 3)
        if m + k < 0 or p ** (m + k) > 125:
            continue
        n_min = rng.randint(-k - 2, m + 1)
        n_max = rng.randint(n_min, m + 2)
        depth = rng.randint(0, 2)
        if max(m, n_max + depth) + max(k, 1 - n_min) <= budget:
            break
    levels = (3, 4) if p == 2 and fine_phases else (0, 1, 2)
    data = _random_table(p, m, k, rng, exact, levels)
    code, err = _analyze_stderr(data, f"{n_min}:{n_max}:{depth}")
    assert code == 0
    f = fn_from_json(data)
    want = complex(oracles.residual_by_synthesis(f, analyze(f, Window(n_min, n_max, depth)))).real
    line = err.splitlines()[1]
    if exact:
        assert line == f"round-trip residual norm^2: {fmt(want)}"
    else:
        norm2 = sum(abs(complex(v)) ** 2 for v in f.table.values()) * p ** -k
        got = float(line.removeprefix("round-trip residual norm^2: "))
        assert abs(got - want) <= 1e-12 * max(1.0, norm2)


# three cells of a p = 5 table on Z_5 at resolution 1: its mean is zeta_5/10,
# so the residual of any window with n_max = 3 is |mean|^2 * 5^-3 = 1/12500
_P5_TABLE = {"prime": 5, "support_exponent": 0, "resolution_exponent": 1, "cells": [
    {"digits": [1], "mag_num": 1, "mag_den": 1, "phase_num": 0, "phase_den": 1},
    {"digits": [2], "mag_num": 1, "mag_den": 2, "phase_num": 1, "phase_den": 5},
    {"digits": [4], "mag_num": 1, "mag_den": 1, "phase_num": 1, "phase_den": 2}]}


def test_analyze_window_finer_than_the_table(capsys, tmp_path):
    # wavelets finer than the cells have no coefficient, so the residual
    # does not depend on n_min below 1 - K; the synthesis route needed
    # 5^(4 - n_min) cells for it and exited 3 at n_min = -5
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(_P5_TABLE))
    errs = []
    for window in ("-1:3:0", "-3:3:0", "-5:3:0"):
        code, _, err = run(capsys, ["--prime", "5", "--window", window, "analyze", str(path)])
        assert code == 0
        errs.append(err)
    assert errs[0] == errs[1] == errs[2]
    assert errs[0].splitlines()[1] == "round-trip residual norm^2: 8.0000000000000007e-05"
    f = fn_from_json(_P5_TABLE)
    want = oracles.residual_by_synthesis(f, analyze(f, Window(-1, 3, 0)))
    assert want == Fraction(1, 12500)


def test_analyze_builds_no_table_larger_than_its_input(capsys, tmp_path, monkeypatch):
    # a work count: no synthesis or inner product, and every table built
    # while the command runs has at most the input's cells
    calls, sizes = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(wavelets, "synthesize", counted("synthesize", wavelets.synthesize))
    monkeypatch.setattr(cli, "synthesize_fn", counted("synthesize", cli.synthesize_fn))
    monkeypatch.setattr(functions, "inner_product",
                        counted("inner_product", functions.inner_product))
    post_init = LocallyConstantFn.__post_init__

    def sized(self):
        sizes.append(len(self.table))
        post_init(self)

    monkeypatch.setattr(LocallyConstantFn, "__post_init__", sized)
    for data, window in ((_README_TABLE, "-6:2:1"), (_P5_TABLE, "-5:3:0")):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        sizes.clear()
        code, _, _ = run(capsys, ["--prime", str(data["prime"]), "--window", window,
                                  "analyze", str(path)])
        assert code == 0
        assert sizes and max(sizes) <= len(data["cells"])
    assert calls == []


# -- checks ----------------------------------------------------------------------


def test_check_algebra_passes(capsys):
    code, out, _ = run(
        capsys,
        ["--prime", "2", "--window", "-3:3:1", "check", "algebra",
         "--relation", "sl2", "--relation", "witt"],
    )
    assert code == 0
    assert "max residual 0" in out
    assert "passed" in out


def test_check_algebra_all_relations(capsys):
    code, out, _ = run(
        capsys,
        ["--prime", "3", "--window", "-3:3:1", "--seed", "5", "check", "algebra",
         "--alpha", "1", "--alpha", "0.3"],
    )
    assert code == 0
    assert "translation:kernel" in out


def test_check_algebra_evaluates_each_side_as_a_scalar(capsys, monkeypatch):
    # every side maps psi_(n,m,j) to c(n) psi_(n+s,m,j): the relation check
    # builds no expansion, and each call takes p^(a(1-n)) once per (a, n) it
    # meets; a side stays a Python rational until a root or sqrt(p) enters,
    # so the rational families build no Cyc at all
    from padic_wavelets.exact import Cyc
    from padic_wavelets.wavelets import WaveletExpansion

    code, out, err = run(capsys, ["--prime", "3", "--window", "-3:3:1", "check", "algebra",
                                  "--relation", "all", "--alpha", "0.5", "--alpha", "1",
                                  "--alpha", "0.3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "all 2091 relation instances passed"
    built, powers, cycs, seen = [], [], [], {}
    monkeypatch.setattr(WaveletExpansion, "__post_init__", lambda self: built.append(self))
    init = Cyc.__init__
    monkeypatch.setattr(Cyc, "__init__",
                        lambda self, *args, **kwargs: cycs.append(1) or init(self, *args, **kwargs))
    power = operators.p_power_amp
    monkeypatch.setattr(operators, "p_power_amp",
                        lambda p, x: powers.append(x) or power(p, x))
    alphas = [Fraction(1, 2), Fraction(1), 0.3]
    for family in cli._ROW_FAMILIES:
        built.clear()
        powers.clear()
        cycs.clear()
        rows = operators.relation_rows(family, 3, alphas)
        results = operators.check_relations(3, Window(-3, 3, 1), rows)
        assert results and all(r.passed(1e-10) for r in results)
        seen[family] = (len(built), len(powers), len(cycs))
    assert [count for count, _, _ in seen.values()] == [0] * 4
    sums = {(type(a1 + a2), a1 + a2) for a1 in alphas for a2 in alphas}
    scales = 7
    assert seen["sl2"][1] == seen["witt"][1] == 0
    # plus p^(s a/2), p^(-s a/2) and p^(s a) once per (a, s)
    assert seen["deformed"][1] <= scales * len(alphas) + 3 * 2 * len(alphas)
    assert seen["semigroup"][1] <= scales * len(sums | {(type(a), a) for a in alphas})
    assert seen["sl2"][2] == seen["witt"][2] == 0
    # p^(a(1-n)) at a = 1/2 is a Cyc: the count is live
    assert seen["deformed"][2] > 0


def test_corrupted_word_is_exit_two(capsys, monkeypatch):
    # negative control: one sl2 row checked against 3 log_p D instead of 2,
    # on the weighted shifts that `check algebra` evaluates
    from padic_wavelets.operators import Relation, ell_op, scalar_op

    jp, jm = ell_op(+1), ell_op(-1)
    corrupted = Relation("sl2:corrupted", None,
                         (jp @ jm, jm @ jp, scalar_op(Fraction(3)) @ ell_op(0)), True)
    rows = cli.relation_rows
    monkeypatch.setattr(cli, "relation_rows", lambda *args: [*rows(*args), corrupted])
    code, out, err = run(
        capsys, ["--prime", "2", "check", "algebra", "--relation", "sl2"])
    assert code == 2
    assert "sl2:corrupted: max residual" in out
    assert "sl2:corrupted" in err
    assert "KozyrevIndex" in err


@pytest.mark.parametrize("name, alpha, wrong, message", [
    # (a - b + 1) l_(a+b) for (a - b) l_(a+b): the residual is n - 1
    ("witt:[l2,l1]", None, lambda: operators.scalar_op(2) @ operators.ell_op(3),
     "check failed: witt:[l2,l1] violated at index KozyrevIndex(n=-3, m_digits=(), j=1), "
     "alpha=None: residual 4\n"),
    # D^a J+ for (1 - p^a) D^a J+: the residual is -J+ D^a, (n - 1) p^(a(1-n)),
    # 36 at n = -3 for a = 1/2
    ("commutator:[D^a,J+1]", Fraction(1, 2),
     lambda: operators.vladimirov(Fraction(1, 2)) @ operators.ell_op(+1),
     "check failed: commutator:[D^a,J+1] violated at index KozyrevIndex(n=-3, m_digits=(), "
     "j=1), alpha=1/2: residual 36\n"),
], ids=["witt", "commutator"])
def test_exact_relation_with_a_factor_dropped_fails_as_the_per_scale_walk(
        capsys, monkeypatch, name, alpha, wrong, message):
    # negative control for the closed form: one exact row with a factor
    # dropped must not vanish, and then fails at the first scale and with
    # the residual of the per-scale walk, which the same row marked float
    # takes
    rows = cli.relation_rows
    vanished = []

    def broken(exact):
        def patched(family, p, alphas):
            for row in rows(family, p, alphas):
                if row.name == name and row.alpha == alpha:
                    assert row.exact and row.vanishes(p, {})
                    row = operators.Relation(name, alpha, (*row.sides[:2], wrong()), exact)
                    vanished.append(row.vanishes(p, {}))
                yield row
        return patched

    argv = ["--prime", "3", "--window", "-3:3:1", "check", "algebra", "--relation", "all",
            "--alpha", "0.5", "--alpha", "1"]
    monkeypatch.setattr(cli, "relation_rows", broken(True))
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, message)
    monkeypatch.setattr(cli, "relation_rows", broken(False))
    assert run(capsys, argv) == (code, out, err)
    assert vanished == [False, False]


def test_relation_results_do_not_grow_with_the_m_depth(capsys, monkeypatch):
    # a residual depends on the scale only: m-depth 3 holds p^2 times the
    # labels of m-depth 1, which `check algebra` counts, but not one more
    # result of any relation
    counts = []
    check = cli.check_relations

    def counted(*args):
        out = check(*args)
        counts.append(collections.Counter(r.relation for r in out))
        return out

    monkeypatch.setattr(cli, "check_relations", counted)
    printed = []
    for depth in (1, 3):
        code, out, err = run(capsys, [
            "--prime", "3", "--window", f"-3:3:{depth}", "check", "algebra",
            "--relation", "sl2", "--relation", "witt", "--relation", "deformed",
            "--relation", "semigroup", "--alpha", "0.5", "--alpha", "1", "--alpha", "0.3"])
        assert (code, err) == (0, "")
        printed.append(int(out.splitlines()[-1].split()[1]))
    # 3 sl2, 49 Witt, 5 deformed and 1 semigroup relations
    assert len(counts) == 2 and len(counts[0]) == 58
    assert counts[0] == counts[1]
    assert printed[1] == 9 * printed[0]


def test_relation_off_at_an_interior_scale_names_its_first_label(capsys, monkeypatch):
    # negative control at m-depth 2, 18 labels per scale: [D^1, J-1] off by
    # 1/7 at the interior scale n = 0 only must fail at the label (0, (), 1);
    # stderr as the label-by-label walk printed it
    from padic_wavelets.operators import WeightedShift

    class AtZero(WeightedShift):
        def weight(self, p, n, c, powers):
            return c * Fraction(1, 7) if n == 0 else None

    def broken(family, p, alphas):
        return [dataclasses.replace(row, sides=(*row.sides, AtZero(-1, (), 0, 0)))
                if row.name == "commutator:[D^a,J-1]" and row.alpha == 1 else row
                for row in rows(family, p, alphas)]

    rows = cli.relation_rows
    monkeypatch.setattr(cli, "relation_rows", broken)
    code, out, err = run(capsys, ["--prime", "3", "--window", "-3:3:2", "check", "algebra",
                                  "--relation", "all", "--alpha", "0.5", "--alpha", "1"])
    assert code == 2
    assert "commutator:[D^a,J-1]: max residual 0.14285714285714285\n" in out
    assert err == (
        "check failed: commutator:[D^a,J-1] violated at index "
        "KozyrevIndex(n=0, m_digits=(), j=1), alpha=1: residual 0.14285714285714285\n")


def test_alpha_is_exact_only_in_half_integers(capsys, monkeypatch):
    # every finite float is a dyadic rational: only one in (1/2)Z is carried
    # exactly, however close another comes to a half-integer
    seen = []

    def capture(family, p, alphas):
        seen.extend(alphas)
        return []

    monkeypatch.setattr(cli, "relation_rows", capture)
    code, _, err = run(capsys, ["check", "algebra", "--relation", "deformed",
                                "--alpha", "1e-13", "--alpha", "2.9999999999999",
                                "--alpha", "0.5", "--alpha", "3", "--alpha", "-1.5"])
    assert code == 0, err
    assert seen == [1e-13, 2.9999999999999, Fraction(1, 2), Fraction(3), Fraction(-3, 2)]
    assert [type(a) for a in seen] == [float, float, Fraction, Fraction, Fraction]


@pytest.mark.parametrize("repeats", [["1", "1"], ["1", "1.0", "1"]])
def test_repeated_alpha_is_checked_once(capsys, repeats):
    # 1 and 1.0 parse to the same value: the first occurrence is kept, so
    # the lines and the count are those of --alpha 1 alone (84, not 204
    # or 360)
    argv = ["--prime", "3", "--window", "-1:1:1", "check", "algebra",
            "--relation", "deformed", "--relation", "semigroup"]
    once = run(capsys, argv + ["--alpha", "1"])
    assert once[0] == 0 and once[1].endswith("all 84 relation instances passed\n")
    assert run(capsys, argv + [a for r in repeats for a in ("--alpha", r)]) == once


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_non_finite_alpha_is_exit_one(capsys, alpha):
    code, out, err = run(capsys, ["check", "algebra", "--alpha", alpha])
    assert (code, out) == (1, "")
    assert err.startswith("input error: --alpha")


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf", "-inf"])
def test_tolerance_that_is_not_finite_and_positive_is_exit_one(capsys, tolerance):
    # no float relation could fail under inf, and under nan every one would
    # fail, at residual 0 too
    code, out, err = run(capsys, ["--tolerance", tolerance, "check", "algebra",
                                  "--alpha", "0.3"])
    assert (code, out) == (1, "")
    assert err.startswith("input error: --tolerance")


def test_float_relation_large_coefficients_pass(capsys):
    # the semigroup sides at n = -6 are about 2^(2.7 * 7) = 4.9e5; their
    # rounding (5.8e-10) is judged against 1e-10 times that size
    code, out, err = run(
        capsys, ["--window", "-6:6:1", "check", "algebra", "--alpha", "1", "--alpha", "1.7"])
    assert code == 0, err
    assert "relation instances passed" in out


def corrupt_spectral_sum(monkeypatch, at_scale):
    """Make the operator D^2.7 = D^(1 + 1.7) yield c(n) (1 + 1e-6) at the
    scales n where `at_scale(n)` holds."""
    from padic_wavelets.operators import Diagonal, WeightedShift

    weight = WeightedShift.weight

    def corrupted(self, p, n, c, powers):
        out = weight(self, p, n, c, powers)
        if len(self.steps) == 1 and isinstance(prim := self.steps[0][1], Diagonal) and \
                isinstance(prim.alpha, float) and abs(prim.alpha - 2.7) < 1e-9 and \
                at_scale(n) and out is not None:
            out = out * (1 + 1e-6)
        return out

    monkeypatch.setattr(WeightedShift, "weight", corrupted)


def test_float_relation_off_by_a_millionth_is_exit_two(capsys, monkeypatch):
    # negative control for the relative tolerance: D^(a1+a2) made 1e-6 too
    # large (relative) must still fail
    corrupt_spectral_sum(monkeypatch, lambda n: True)
    code, _, err = run(
        capsys, ["--window", "-6:6:1", "check", "algebra", "--relation", "semigroup",
                 "--alpha", "1", "--alpha", "1.7"])
    assert code == 2
    assert "semigroup violated" in err


def test_relation_off_at_one_scale_names_that_scales_first_label(capsys, monkeypatch):
    # negative control for the per-scale walk: D^(a1+a2) made 1e-6 too large
    # at scale n = 2 only must fail, at the first label (2, (), 1) of that scale
    corrupt_spectral_sum(monkeypatch, lambda n: n == 2)
    code, out, err = run(
        capsys, ["--window", "-6:6:1", "check", "algebra", "--relation", "semigroup",
                 "--alpha", "1", "--alpha", "1.7"])
    assert code == 2
    # at n = 2 the sides are at most 1, so the residual is about 2^(-2.7) * 1e-6
    assert out == "semigroup: max residual 1.538930516353787e-07\n"
    assert err.startswith(
        "check failed: semigroup violated at index KozyrevIndex(n=2, m_digits=(), j=1), "
        "alpha=(Fraction(1, 1), 1.7): residual ")


def test_negative_alpha_skips_only_the_kernel_relation(capsys):
    # the kernel form of D^alpha needs alpha > 0, so it has no instance here;
    # the spectral relations run for every alpha
    code, out, err = run(
        capsys, ["--prime", "3", "--window", "-1:1:1", "check", "algebra", "--alpha", "-1.5"])
    assert (code, err) == (0, "")
    assert "translation:kernel: 0 instances\n" in out
    assert "semigroup: max residual 0\n" in out
    assert out.endswith("relation instances passed\n")
    code, out, err = run(
        capsys, ["--prime", "3", "--window", "-1:1:1", "check", "algebra", "--relation",
                 "translation", "--alpha", "-1.5", "--alpha", "1"])
    assert (code, err) == (0, "")
    assert "translation:kernel" in out


def test_check_algebra_names_relations_without_instances(capsys):
    # 12 of the 49 Witt pairs shift further than 5 scales allow
    code, out, err = run(capsys, ["--prime", "3", "--window", "-2:2:0", "check", "algebra",
                                  "--alpha", "1", "--alpha", "2.5"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "all 310 relation instances passed"
    assert len(lines) == 60
    assert sum(line.endswith(": 0 instances") for line in lines) == 12
    assert "witt:[l2,l3]: 0 instances" in lines
    assert sum(line.startswith("witt:") for line in lines) == 49


def test_check_algebra_kernel_relation_respects_the_cap(capsys):
    # the translation kernel enumerates the 3^3 cells of its random table
    args = ["--window", "0:0:0", "check", "algebra", "--relation"]
    code, out, err = run(capsys, ["--prime", "3", "--cap", "10", *args, "translation",
                                  "--alpha", "1"])
    assert (code, out) == (3, "")
    assert err == "resource cap: enumeration of 27 cells exceeds the cap of 10\n"
    code, out, err = run(capsys, ["--prime", "3", "--cap", "27", *args, "translation",
                                  "--alpha", "1"])
    assert (code, err) == (0, "")
    assert out.endswith("all 1 relation instances passed\n")
    code, out, err = run(capsys, ["--prime", "3", "--cap", "10", *args, "sl2", "--alpha", "1"])
    assert (code, err) == (0, "")
    # no alpha > 0, no table: the cap is not consulted
    code, out, err = run(capsys, ["--prime", "3", "--cap", "10", *args, "translation",
                                  "--alpha", "-1"])
    assert (code, err) == (0, "")
    assert out == "translation:kernel: 0 instances\nall 0 relation instances passed\n"


@pytest.mark.parametrize("argv", [
    ["--window", "-3:3:1", "check", "algebra", "--relation", "semigroup", "--alpha", "1000.3"],
    ["--window", "0:0:1", "check", "algebra", "--relation", "translation", "--alpha", "1000.3"],
], ids=["spectral", "kernel"])
def test_float_power_beyond_the_float_range_is_exit_two(capsys, argv):
    # 3^1000.3 has no float value: exit 2, as an exact value beyond the
    # float range already exits
    code, out, err = run(capsys, ["--prime", "3", *argv])
    assert (code, out) == (2, "")
    assert err.startswith("numeric failure: ") and err.endswith("lies beyond the float range\n")


GOLDEN = json.loads((Path(__file__).parent / "check_algebra_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_check_algebra_stdout_is_golden(capsys, case):
    # stdout recorded from the per-basis-vector relation walk
    code, out, _ = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


MONNA_GOLDEN = json.loads((Path(__file__).parent / "check_monna_golden.json").read_text())


@pytest.mark.parametrize("case", MONNA_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_check_monna_stdout_is_golden(capsys, case):
    code, out, _ = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


# each family broken at one place, and the first label where it shows
@pytest.mark.parametrize("name, broken, where", [
    ("pushforward_phase", lambda fn: lambda p, idx: -fn(p, idx),
     "monna:pushforward violated at KozyrevIndex(n=-3, m_digits=(), j=1)"),
    # the translate loses its last digit, so two labels share a Haar label
    ("haar_index_for", lambda fn: lambda p, idx: haar.HaarIndex(-idx.n, fn(p, idx).translate // p),
     "monna:labels violated at KozyrevIndex(n=-3, m_digits=(1,), j=1)"),
    # one label fewer at each scale leaves a Haar label unreached
    ("enumerate_m_digits", lambda fn: lambda p, depth: fn(p, depth)[:-1],
     "monna:labels violated at HaarIndex(level=3, translate=26, convention='orthonormal')"),
    # the p^(L/2) normalization dropped
    ("monomial_coefficient",
     lambda fn: lambda p, d, idx: fn(p, d, idx) * Cyc.half_power(p, -idx.level),
     "monna:monomial violated at (1, HaarIndex(level=0, translate=0, convention='orthonormal'))"),
    # a wavelet scaled by a wrong constant
    ("materialize", lambda fn: lambda p, idx: oracles.scaled(fn(p, idx), Cyc.half_power(p, 1)),
     "monna:modulus violated at KozyrevIndex(n=-3, m_digits=(), j=1)"),
], ids=["pushforward", "labels-injective", "labels-onto", "monomial", "modulus"])
def test_check_monna_names_the_failing_family_and_label(capsys, monkeypatch, name, broken, where):
    monkeypatch.setattr(haar, name, broken(getattr(haar, name)))
    code, out, err = run(capsys, ["--prime", "3", "--window", "-3:0:3", "check", "monna"])
    assert (code, out, err) == (2, "", f"check failed: {where}\n")


def test_check_monna_respects_the_cap(capsys):
    # the widest enumeration is the 3^3 Haar translates of level 3
    code, out, err = run(capsys, ["--prime", "3", "--window", "-3:0:3", "--cap", "26",
                                  "check", "monna"])
    assert (code, out) == (3, "")
    assert err.startswith("resource cap:")
    assert run(capsys, ["--prime", "3", "--window", "-3:0:3", "--cap", "27",
                        "check", "monna"])[0] == 0


def test_check_monna_takes_no_option(capsys):
    code, out, _ = run(capsys, ["check", "monna", "--help"])
    assert code == 0
    assert [line.split()[0] for line in out.split("Options:")[1].splitlines() if line] == ["--help"]


# -- real side ---------------------------------------------------------------------


def test_expand_monomial_csv(capsys):
    code, out, _ = run(
        capsys,
        ["--prime", "2", "--format", "csv", "expand-monomial", "--degree", "1",
         "--max-level", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,translate,re,im"
    assert lines[1].startswith("-1,0,0.5")  # scaling constant = mean 1/2
    assert lines[2] == "0,0,-0.25,0"


def test_expand_monomial_degree_zero_all_zero(capsys):
    code, out, _ = run(
        capsys,
        ["--prime", "3", "--format", "csv", "expand-monomial", "--degree", "0",
         "--max-level", "2"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert all(float(r[2]) == 0 and float(r[3]) == 0 for r in rows)


def test_expand_monomial_paper_convention(capsys):
    # paper-convention coefficients are the orthonormal ones over sqrt(p)
    code, out, _ = run(
        capsys,
        ["--prime", "2", "--format", "csv", "--convention", "paper",
         "expand-monomial", "--degree", "1", "--max-level", "0"],
    )
    assert code == 0
    row = out.strip().splitlines()[2].split(",")
    assert float(row[2]) == pytest.approx(-0.25 / 2**0.5)


def test_haar_sample(capsys):
    code, out, _ = run(
        capsys, ["--format", "csv", "haar", "sample", "--points", "4"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0,1,0"
    assert lines[3] == "0.5,-1,0"


REAL_SIDE_GOLDEN = json.loads((Path(__file__).parent / "real_side_cli_golden.json").read_text())


@pytest.mark.parametrize("case", REAL_SIDE_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_real_side_stdout_is_golden(capsys, case):
    # `expand-monomial` and `haar sample` in both formats, recorded when each
    # command still built its CSV rows apart from its JSON records
    code, out, _ = run(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


def test_monna_map(capsys):
    code, out, _ = run(capsys, ["monna-map", "--xi", "1/2"])
    assert code == 0
    data = json.loads(out)
    assert data["image"] == "1"


def test_monna_map_readme_example(capsys):
    code, out, err = run(capsys, ["--prime", "2", "monna-map", "--xi", "3/4"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"prime": 2, "input": "3/4", "image": "3", "image_float": 3.0}


@pytest.mark.parametrize("argv, image", [
    # 1/3 = 1 + 2 + 2^3 + 2^5 + ... in 2-adic digits 1101 0101 0101 ...: the
    # image reverses the digits that --precision keeps
    (["--precision", "4", "monna-map", "--xi", "1/3"], "13/16"),
    (["monna-map", "--xi", "1/3"], "3413/4096"),
    # -1/2 = 2^-1 (1 + 2 + 2^2 + ...): complement digits, all ones
    (["monna-map", "--xi", "-1/2"], "4095/2048"),
    # a zero numerator gives the exact zero point, which has no digits
    (["monna-map", "--xi", "0"], "0"),
])
def test_monna_map_reads_the_digits_kept_by_precision(capsys, argv, image):
    code, out, err = run(capsys, ["--prime", "2", *argv])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["image"] == image
    assert data["image_float"] == float(Fraction(image))


def test_bad_global_prime(capsys):
    code, _, err = run(capsys, ["--prime", "4", "monna-map", "--xi", "1/2"])
    assert code == 1
