"""Batch command-line front end.

Subcommands: `wavelet table`, `wavelet eval`, `analyze`, `synthesize`,
`fourier`, `check algebra`, `check monna`, `expand-monomial`, `haar sample`,
`monna-map`.
Exit codes: 0 success, 1 usage/parse error, 2 numeric or invariant failure,
3 enumeration cap exceeded.

Output is deterministic: cells and labels are emitted in sorted order and
floating values are printed with 17 significant digits; exact rationals are
printed verbatim.
"""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import click

from .errors import (
    EnumerationCapError,
    InvalidInputError,
    OutputRangeError,
    PadicError,
)
from .exact import CycSum, is_half_integral
from .functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    _check_cap,
    amp_to_json,
    fn_from_json,
    fn_to_json,
    fourier as fourier_fn,
    integrate,
    inverse_fourier,
    rep_digits,
)
from .haar import (
    HaarIndex,
    haar_step,
    monna_instances,
    monomial_coefficient,
    scaling_constant,
)
from .operators import (
    RelationResult,
    deformed_results,
    relation_names,
    semigroup_results,
    sl2_results,
    translation_kernel_residual,
    translation_spectral_results,
    witt_results,
)
from .padic import frac_valp, from_rational, is_prime
from .wavelets import (
    KozyrevIndex,
    Window,
    analyze as analyze_fn,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    materialize,
    synthesize as synthesize_fn,
    validate_index,
)


class CheckFailure(PadicError):
    """A relation residual exceeded its tolerance."""


@dataclass
class RunConfig:
    prime: int = 2
    precision: int = 12
    n_min: int = -2
    n_max: int = 2
    m_depth: int = 1
    tolerance: float = 1e-10
    convention: str = "orthonormal"
    cap: int = DEFAULT_CELL_CAP
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        if not is_prime(self.prime):
            raise InvalidInputError(f"--prime {self.prime} is not prime")
        if self.precision < 1:
            raise InvalidInputError("--precision must be >= 1")
        if self.tolerance <= 0:
            raise InvalidInputError("--tolerance must be > 0")
        if self.cap < 1:
            raise InvalidInputError("--cap must be >= 1")
        if self.n_min > self.n_max:
            raise InvalidInputError("--window bounds are inverted")

    @property
    def window(self) -> Window:
        return Window(self.n_min, self.n_max, self.m_depth)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_window(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise click.UsageError(f"--window '{spec}' is not NMIN:NMAX[:MDEPTH]")
    try:
        n_min, n_max = int(parts[0]), int(parts[1])
        m_depth = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise click.UsageError(f"--window '{spec}': {exc}") from exc
    return n_min, n_max, m_depth


def parse_index(spec: str) -> KozyrevIndex:
    """Parse 'n:m1,m2,...:j' (empty middle part for m = 0)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--index '{spec}' is not n:m_digits:j")
    try:
        n = int(parts[0])
        m = tuple(int(d) for d in parts[1].split(",") if d != "")
        j = int(parts[2])
        return KozyrevIndex(n, m, j)
    except (ValueError, InvalidInputError) as exc:
        raise click.UsageError(f"--index '{spec}': {exc}") from exc


def parse_rational(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"'{spec}' is not a rational number") from exc


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """`click.echo` to the current stdout or stderr, passed as `file`.

    Without `file`, click keeps each stream it writes to in a
    `WeakKeyDictionary` whose value is the stream itself, so the key never
    dies: every redirected stream (one per in-process call) would live on.
    `click.get_text_stream` makes the same encoding fix-up without a cache.
    """
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout"), nl=nl)


def write_output(text: str, output: str | None) -> None:
    if output in (None, "-"):
        _echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)


@contextmanager
def _digit_limit():
    """Report an integer beyond the interpreter's int-to-str digit limit as
    a numeric failure rather than a traceback."""
    try:
        yield
    except ValueError as exc:
        raise OutputRangeError(f"cannot write the result: {exc}") from exc


def to_json(payload) -> str:
    """`payload` as indented JSON text, the form every command writes: the
    bytes of `json.dumps(payload, indent=2)` for a tree of dicts with string
    keys, lists, strings, ints, floats, bools and None."""
    with _digit_limit():
        return _json_text(payload, "\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# ints are written by `int.__repr__`, which raises the digit-limit
# `ValueError` as json does
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _json_text(x, newline: str) -> str:
    # `newline` is the line break and indent that close x; its items are
    # indented one step further
    scalar = _SCALAR_TEXT.get(type(x))
    if scalar is not None:
        return scalar(x)
    inner = newline + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        get = _SCALAR_TEXT.get
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{w(v) if (w := get(type(v))) else _json_text(v, inner)}"
                 for k, v in x.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(x, list):
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            items = map(int.__repr__, x)
        else:
            items = [_json_text(v, inner) for v in x]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def csv_lines(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


@click.group()
@click.option("--prime", default=2, show_default=True, help="The prime p.")
@click.option("--precision", default=12, show_default=True,
              help="Digits carried by p-adic inputs.")
@click.option("--window", "window_spec", default="-2:2:1", show_default=True,
              help="Scale window NMIN:NMAX[:MDEPTH].")
@click.option("--tolerance", default=1e-10, show_default=True,
              help="Tolerance for floating-mode comparisons.")
@click.option("--convention", type=click.Choice(["orthonormal", "paper"]),
              default="orthonormal", show_default=True)
@click.option("--cap", default=DEFAULT_CELL_CAP, show_default=True,
              help="Cell enumeration cap.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--seed", default=0, show_default=True,
              help="Seed for randomized sweeps.")
@click.pass_context
def cli(ctx, prime, precision, window_spec, tolerance, convention, cap,
        output_format, seed):
    """Wavelet analysis on the p-adic line."""
    n_min, n_max, m_depth = parse_window(window_spec)
    ctx.obj = RunConfig(
        prime=prime,
        precision=precision,
        n_min=n_min,
        n_max=n_max,
        m_depth=m_depth,
        tolerance=tolerance,
        convention=convention,
        cap=cap,
        output_format=output_format,
        seed=seed,
    )


@cli.group()
def wavelet():
    """Evaluate wavelets and export their cell tables."""


@wavelet.command("table")
@click.option("--index", "indices", multiple=True,
              help="Wavelet label n:m_digits:j; repeatable.")
@click.option("--extra-depth", default=0, show_default=True)
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def wavelet_table(config: RunConfig, indices, extra_depth, output):
    """Per-cell rows (cell label, |x|_p exponent, magnitude, phase)."""
    parsed = [parse_index(s) for s in indices]
    for idx in parsed:
        validate_index(config.prime, idx)
    if config.output_format == "csv":
        rows = []
        for idx in parsed:
            fn = materialize(config.prime, idx, extra_depth, cap=config.cap)
            for rep in sorted(fn.table):
                value = fn.table[rep]
                digits = rep_digits(rep, fn.prime, fn.support_exponent, fn.resolution)
                label = "".join(str(d) for d in digits) or "0"
                norm_exp = "-inf" if rep == 0 else -frac_valp(rep, fn.prime)
                polar = value.polar_exact()
                if polar is not None:
                    phase_num, phase_den = polar[2].numerator, polar[2].denominator
                else:
                    phase_num = phase_den = ""
                rows.append((
                    f"{idx.n}:{','.join(map(str, idx.m_digits))}:{idx.j}",
                    label, norm_exp, fmt(abs(complex(value))),
                    phase_num, phase_den,
                ))
        text = csv_lines(
            ("index", "cell_label", "norm_exponent", "magnitude",
             "phase_num", "phase_den"),
            rows,
        )
    else:
        payload = []
        for idx in parsed:
            fn = materialize(config.prime, idx, extra_depth, cap=config.cap)
            record = {"n": idx.n, "m_digits": list(idx.m_digits), "j": idx.j}
            record["cells"] = fn_to_json(fn)["cells"]
            payload.append(record)
        text = to_json(payload) + "\n"
    write_output(text, output)


@wavelet.command("eval")
@click.option("--index", required=True, help="Wavelet label n:m_digits:j.")
@click.option("--xi", required=True, help="Evaluation point as a rational num/den.")
@click.pass_obj
def wavelet_eval(config: RunConfig, index, xi):
    """Evaluate one wavelet at a rational point carried to --precision digits."""
    idx = parse_index(index)
    q = parse_rational(xi)
    point = from_rational(q.numerator, q.denominator, config.prime, config.precision)
    value = evaluate(idx, point)
    z = complex(value)
    out = {"re": z.real, "im": z.imag}
    encoded = amp_to_json(value)
    if "mag_num" in encoded:
        with _digit_limit():
            out["exact"] = {
                "magnitude": f"{encoded['mag_num']}/{encoded['mag_den']}",
                "phase": f"{encoded['phase_num']}/{encoded['phase_den']}",
            }
    _echo(to_json(out))


@cli.command("analyze")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def analyze_cmd(config: RunConfig, input_file, output):
    """Project a JSON table function onto the window's wavelets.

    The part the window cannot carry (a nonzero mean in particular) is
    reported on stderr alongside the round-trip residual.  The window's
    wavelets are orthonormal and `analyze` returns every coefficient of
    f's projection onto them, so by Parseval that residual is
    ||f||^2 - sum |c|^2, exact for an exact table."""
    fn = _load_table(config, input_file)
    if fn.prime != config.prime:
        raise InvalidInputError(
            f"input is over p={fn.prime}, command over p={config.prime}"
        )
    expansion = analyze_fn(fn, config.window, cap=config.cap)
    write_output(to_json(expansion_to_json(expansion)) + "\n", output)
    mean = complex(integrate(fn))
    # the reader rejects repeated cells, so each value is one cell of f
    norm2, kept = CycSum(fn.prime), CycSum(fn.prime)
    for v in fn.table.values():
        norm2.add_abs2(v)
    for c in expansion.coefficients.values():
        kept.add_abs2(c)
    measure = Fraction(fn.prime) ** (-fn.resolution)
    res_norm2 = complex(norm2.result() * measure - kept.result()).real
    _echo(f"mean component: {fmt(mean.real)}{mean.imag:+.17g}j", err=True)
    _echo(f"round-trip residual norm^2: {fmt(res_norm2)}", err=True)


@cli.command("synthesize")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def synthesize_cmd(config: RunConfig, input_file, output):
    """Rebuild the table function of a JSON expansion."""
    expansion = _load(input_file, expansion_from_json)
    fn = synthesize_fn(expansion, cap=config.cap)
    write_output(to_json(fn_to_json(fn)) + "\n", output)


@cli.command("fourier")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--inverse", is_flag=True, help="Apply the inverse transform.")
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def fourier_cmd(config: RunConfig, input_file, inverse, output):
    """Fourier-transform a JSON table function."""
    fn = _load_table(config, input_file)
    result = inverse_fourier(fn, config.cap) if inverse else fourier_fn(fn, config.cap)
    write_output(to_json(fn_to_json(result)) + "\n", output)


def _load(path: str, parse):
    """Read a JSON input file and decode it with `parse`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:
            # an integer beyond the int-to-str digit limit, or bytes that are not text
            raise InvalidInputError(f"{path}: {exc}") from exc
    return parse(data)


def _load_table(config: RunConfig, path: str):
    """Read a table function whose p^(M+K) cells fit the cap, so that no
    later step builds p^(-K) or a cell grid for an unbounded declared size."""
    fn = _load(path, fn_from_json)
    _check_cap(fn.prime, fn.support_exponent + fn.resolution, config.cap)
    return fn


@cli.group()
def check():
    """Verification suites."""


_RELATIONS = ("sl2", "witt", "deformed", "semigroup", "translation")


@check.command("algebra")
@click.option("--relation", "relations", multiple=True,
              type=click.Choice(_RELATIONS + ("all",)), default=("all",))
@click.option("--alpha", "alphas", multiple=True, type=float,
              help="Exponents for D^alpha checks; repeatable.")
@click.pass_obj
def check_algebra(config: RunConfig, relations, alphas):
    """Run the commutation-relation suites; exit 2 on any violation."""
    p = config.prime
    window = config.window
    alphas = list(alphas) or [0.5, 1.0, 2.0]
    exact_alphas = [_exactify(a) for a in alphas]
    wanted = set(relations)
    if "all" in wanted:
        wanted = set(_RELATIONS)
    results: list[RelationResult] = []
    if "sl2" in wanted:
        results += sl2_results(p, window)
    if "witt" in wanted:
        results += witt_results(p, window, k_range=3)
    if "deformed" in wanted:
        results += deformed_results(p, window, exact_alphas)
    if "semigroup" in wanted:
        pairs = [(a1, a2) for a1 in exact_alphas for a2 in exact_alphas]
        results += semigroup_results(p, window, pairs)
    if "translation" in wanted:
        shift = Fraction(1, p)
        results += translation_spectral_results(p, window, shift, exact_alphas)
        rng = random.Random(config.seed)
        fn = _random_function(p, rng)
        # the kernel form of D^alpha is defined for alpha > 0 only
        for alpha in (a for a in alphas if a > 0):
            residual = translation_kernel_residual(alpha, fn, shift)
            worst = max(
                (abs(complex(v)) for v in residual.table.values()), default=0.0
            )
            results.append(RelationResult(
                "translation:kernel", KozyrevIndex(0), alpha, worst, False))

    by_relation: dict[str, float] = {}
    for r in results:
        by_relation[r.relation] = max(by_relation.get(r.relation, 0.0), r.residual)
    # a relation with no instance inside the window is named, not dropped
    names = {name for family in wanted for name in relation_names(family, k_range=3)}
    lines = [f"{name}: max residual {fmt(by_relation[name])}" if name in by_relation
             else f"{name}: 0 instances" for name in sorted(names | set(by_relation))]
    if lines:
        _echo("\n".join(lines))
    failing = [r for r in results if not r.passed(config.tolerance)]
    if failing:
        first = failing[0]
        raise CheckFailure(
            f"{first.relation} violated at index {first.index}, alpha={first.alpha}: "
            f"residual {fmt(first.residual)}"
        )
    _echo(f"all {len(results)} relation instances passed")


@check.command("monna")
@click.pass_obj
def check_monna(config: RunConfig):
    """Check the Monna correspondence exactly on the window's labels
    supported in Z_p; exit 2 on any violation."""
    window = config.window
    if window.n_min <= 0:
        # the pushforward at scale n enumerates p^(1-n) cells
        _check_cap(config.prime, 1 - window.n_min, config.cap)
    counts = dict.fromkeys(("labels", "modulus", "monomial", "pushforward"), 0)
    for family, label, passed in monna_instances(config.prime, window):
        if not passed:
            raise CheckFailure(f"monna:{family} violated at {label}")
        counts[family] += 1
    _echo("\n".join(f"monna:{family}: {k} instances passed" for family, k in counts.items()))
    _echo(f"all {sum(counts.values())} monna instances passed")


def _exactify(a: float):
    """A float in (1/2)Z is carried as an exact `Fraction`; any other finite
    float stays float, and a non-finite one is rejected."""
    if not math.isfinite(a):
        raise InvalidInputError(f"--alpha {a} is not a finite number")
    exact = Fraction(a)
    return exact if is_half_integral(exact) else a


def _random_function(p: int, rng: random.Random) -> LocallyConstantFn:
    fn_table = {}
    support, res = 1, 2
    for i in range(p ** (support + res)):
        if rng.random() < 0.5:
            fn_table[Fraction(i, p**support)] = complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
    return LocallyConstantFn(p, support, res, fn_table)


@cli.command("expand-monomial")
@click.option("--degree", required=True, type=int)
@click.option("--max-level", default=3, show_default=True)
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def expand_monomial(config: RunConfig, degree, max_level, output):
    """Wavelet coefficients of x^degree on [0, 1].

    CSV rows are (level, translate, re, im); the scaling-function constant
    (the monomial's mean) is the row with level -1."""
    if degree < 0:
        raise InvalidInputError("--degree must be >= 0")
    p = config.prime
    records = [{"level": -1, "translate": 0,
                "re": float(scaling_constant(degree)), "im": 0.0,
                "kind": "scaling"}]
    for level in range(max_level + 1):
        for t in range(p**level):
            c = complex(monomial_coefficient(
                p, degree, HaarIndex(level, t, config.convention)))
            records.append({"level": level, "translate": t,
                            "re": c.real, "im": c.imag, "kind": "wavelet"})
    if config.output_format == "csv":
        rows = [(r["level"], r["translate"], fmt(r["re"]), fmt(r["im"])) for r in records]
        text = csv_lines(("level", "translate", "re", "im"), rows)
    else:
        text = to_json(records) + "\n"
    write_output(text, output)


@cli.group()
def haar():
    """Generalized Haar wavelets on [0, 1]."""


@haar.command("sample")
@click.option("--points", default=64, show_default=True)
@click.option("--level", default=0, show_default=True)
@click.option("--translate", default=0, show_default=True)
@click.option("--output", default="-", show_default=True)
@click.pass_obj
def haar_sample(config: RunConfig, points, level, translate, output):
    """Sample a wavelet on an even grid; rows are (x, re, im)."""
    if points < 1:
        raise InvalidInputError("--points must be >= 1")
    step_fn = haar_step(config.prime, HaarIndex(level, translate, config.convention))
    records = []
    for i in range(points):
        x = Fraction(i, points)
        z = complex(step_fn.value_at(x))
        records.append({"x": float(x), "re": z.real, "im": z.imag})
    if config.output_format == "csv":
        rows = [(fmt(r["x"]), fmt(r["re"]), fmt(r["im"])) for r in records]
        text = csv_lines(("x", "re", "im"), rows)
    else:
        text = to_json(records) + "\n"
    write_output(text, output)


@cli.command("monna-map")
@click.option("--xi", required=True, help="Rational num/den to map.")
@click.pass_obj
def monna_map(config: RunConfig, xi):
    """Monna image of a p-adic number given as a rational."""
    q = parse_rational(xi)
    point = from_rational(q.numerator, q.denominator, config.prime, config.precision)
    image = point.monna()
    with _digit_limit():
        payload = {
            "prime": config.prime,
            "input": str(q),
            "image": str(image),
            "image_float": float(image),
        }
    _echo(to_json(payload))


def main(argv=None) -> int:
    no_args_help = getattr(click.exceptions, "NoArgsIsHelpError", ())
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        if no_args_help and isinstance(exc, no_args_help):
            _echo(exc.format_message())
            return 0
        _echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except InvalidInputError as exc:
        _echo(f"input error: {exc}", err=True)
        return 1
    except EnumerationCapError as exc:
        _echo(f"resource cap: {exc}", err=True)
        return 3
    except CheckFailure as exc:
        _echo(f"check failed: {exc}", err=True)
        return 2
    except PadicError as exc:
        _echo(f"numeric failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
