"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics of one workload, measured
with no tracing installed; with `--trace 1` it prints the per-layer metrics
of a traced run of the same workload and the growth exponents of the size
ladders.  Every job's output is checked.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A record
of the run (and, when traced, its spans) is written under `.bench_out/`.

See perfbench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import jobs
import report
import speed
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("fourier-roundtrip", "wavelet-roundtrip", "relation-suite")
WARMUP_JOBS = 2
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120
# jobs per traced run: a fixed count, so that every count repeats exactly
TRACED_JOBS = {"fourier-roundtrip": 8, "wavelet-roundtrip": 4, "relation-suite": 3}


def load_program():
    """Import the program from ROOT/src, or exit nonzero without a result."""
    if not os.path.isfile(os.path.join(SRC, "padic_wavelets", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/padic_wavelets")
    sys.path.insert(0, SRC)
    import padic_wavelets

    if os.path.dirname(os.path.abspath(padic_wavelets.__file__)) != \
            os.path.join(SRC, "padic_wavelets"):
        sys.exit(f"perfbench: padic_wavelets was imported from {padic_wavelets.__file__}")


# -- provenance ------------------------------------------------------------------


def _git_object(kind: bytes, body: bytes) -> bytes:
    return hashlib.sha1(kind + b" %d\0" % len(body) + body).digest()


def tree_id(path: str) -> bytes:
    """The git tree id of a directory (skipping bytecode caches), so a run
    names the source it measured even where no git metadata exists."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if name == "__pycache__" or name.endswith(".egg-info"):
            continue
        if os.path.isdir(full):
            entries.append((name.encode() + b"/", b"40000 " + name.encode(), tree_id(full)))
        else:
            with open(full, "rb") as fh:
                blob = _git_object(b"blob", fh.read())
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            entries.append((name.encode(), mode + b" " + name.encode(), blob))
    body = b"".join(head + b"\0" + oid for _, head, oid in sorted(entries))
    return _git_object(b"tree", body)


def git_head(root: str) -> str | None:
    """The commit checked out at `root`, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_head(ROOT),
        "src_tree": tree_id(SRC).hex(),
        "machine": platform.machine(),
    }


# -- untraced run ------------------------------------------------------------------


def measure_setup(name: str, seed: int, size: str, workdir: str):
    """SETUP_RUNS fresh processes, each timing the program import plus the
    cold first job.  The reference loop is timed here, between them.
    Returns ([(seconds, reference seconds)], errors)."""
    runs, errors = [], []
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), "--workload", name,
           "--seed", str(seed), "--size", size, "--workdir", workdir]
    before = speed.reference_seconds()
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        after = speed.reference_seconds()
        reference, before = (before + after) / 2, after
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append(f"setup process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        runs.append((record["import_s"] + record["job_s"], reference))
        if record["error"]:
            errors.append(f"cold job: {record['error']}")
    return runs, errors


def end_to_end(name: str, seed: int, seconds: float, size: str, workdir: str):
    import workloads

    w = workloads.workload(name, size, workdir)
    setup_runs, setup_errors = measure_setup(name, seed, size, workdir)
    if not setup_runs:
        sys.exit("perfbench: no setup run completed: " + "; ".join(setup_errors))
    warm, timed = jobs.timed_loop(w, seed, seconds, WARMUP_JOBS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup_times = [speed.normalized(s, ref) for s, ref in setup_runs]
    job_times = [j.normalized for j in timed]
    raw_times = [j.seconds for j in timed]
    tail_s, tail_pct, n, beyond = report.tail(job_times)
    attempted = SETUP_RUNS + len(warm) + len(timed)
    errors = setup_errors + [j.error for j in warm + timed if j.error]
    failed = len(errors)
    metrics = {
        "setup_s": report.metric(
            statistics.median(setup_times), "s",
            f"median of {len(setup_times)} fresh processes: import + cold first job; "
            f"raw {statistics.median([s for s, _ in setup_runs]):.4f} s"),
        "job_s.p50": report.metric(
            statistics.median(job_times), "s",
            f"n={n} timed jobs; raw {statistics.median(raw_times):.4f} s"),
        "job_s.tail": report.metric(
            tail_s, "s", f"p{tail_pct:.1f} of n={n}, {beyond} beyond"),
        "work_per_s": report.metric(
            sum(j.work for j in timed) / sum(job_times), "1/s", f"{w.work_unit} per second"),
        "peak_rss_mb": report.metric(peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    shown = dict(metrics)
    shown["failed_frac"] = report.metric(failed / attempted, "ratio",
                                         f"{failed} of {attempted} jobs failed")
    record = {
        "reference_s": speed.REFERENCE_S,
        "job_seconds": raw_times,
        "job_references": [j.reference for j in timed],
        "setup_runs": setup_runs,
        "errors": errors,
    }
    return metrics, shown, attempted, failed, record


# -- traced run ---------------------------------------------------------------------


def per_layer(name: str, seed: int, size: str, workdir: str):
    import workloads

    import padic_wavelets.cli  # noqa: F401  (traced with the other layers)

    w = workloads.workload(name, size, workdir)
    count = TRACED_JOBS[name]
    indices = range(WARMUP_JOBS, WARMUP_JOBS + count)
    warm = jobs.run_jobs(w, seed, range(WARMUP_JOBS))
    plain = jobs.run_jobs(w, seed, indices)
    tracer = Tracer()
    tracer.install()
    try:
        traced = jobs.run_jobs(w, seed, indices, tracer=tracer)
    finally:
        tracer.uninstall()
    ladders = workloads.run_ladders(random.Random(seed), size)

    per_job, per_name = tracer.summarize()
    traced_s = sum(j.seconds for j in traced)
    metrics = {}
    self_total = 0.0
    for layer in LAYERS:
        calls = sum(per_job.get(j.index, {}).get(layer, (0, 0.0))[0] for j in traced)
        self_s = sum(per_job.get(j.index, {}).get(layer, (0, 0.0))[1] for j in traced)
        self_total += self_s
        metrics[f"{layer}.calls"] = report.metric(calls / count, "count/job")
        metrics[f"{layer}.self_s"] = report.metric(self_s / count, "s/job")
        metrics[f"{layer}.share"] = report.metric(self_s / traced_s, "ratio",
                                                  "self_s / traced job time")

    def total(key):
        return sum(j.counters.get(key, 0) for j in traced)

    def maximum(key):
        return max((j.counters.get(key, 0) for j in traced), default=0)

    hits, misses = total("functions.reduce_rep.hits"), total("functions.reduce_rep.misses")
    per_job_counts = {
        "exact.normalized": ("count/job", "Cyc values built through normalization"),
        "exact.demoted": ("count/job", "exact values mixed with a float"),
        "functions.cells_enumerated": ("count/job", "ball_reps, refine_to and transform cells"),
        "wavelets.labels": ("count/job", "labels analyzed plus labels synthesized"),
        "operators.relation_instances": ("count/job", "relation instances checked"),
        "operators.kernel_pairs": ("computed/job", "N^2 per kernel apply, computed not counted"),
        "haar.coefficients": ("count/job", "monomial coefficients computed"),
        "cli.json_bytes": ("B/job", "JSON bytes the CLI wrote"),
        "cli.demoted_values": ("count/job", "exact values written as {re, im}"),
    }
    for key, (unit, note) in per_job_counts.items():
        metrics[key] = report.metric(total(key) / count, unit, note)
    metrics["exact.max_level"] = report.metric(
        maximum("exact.max_level"), "level", "highest cyclotomic level p^level")
    metrics["functions.cap_headroom"] = report.metric(
        maximum("functions.cap_headroom"), "ratio", "largest cell request / --cap")
    metrics["functions.reduce_rep.hit_ratio"] = report.metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        f"{hits} hits, {misses} misses")
    plain_p50 = statistics.median([j.normalized for j in plain])
    traced_p50 = statistics.median([j.normalized for j in traced])
    metrics["trace.overhead"] = report.metric(
        traced_p50 / plain_p50, "ratio",
        f"traced p50 {traced_p50:.4f} s / untraced {plain_p50:.4f} s, both normalized")
    metrics["trace.coverage"] = report.metric(
        self_total / traced_s, "ratio", "sum of layer self_s / traced job time")
    for key, (exponent, rungs) in ladders.items():
        metrics[key] = report.metric(exponent, "exponent", ", ".join(
            f"N={n}: {t:.4f} s" for n, t in rungs))

    jobs_all = warm + plain + traced
    errors = [j.error for j in jobs_all if j.error]
    top = sorted(per_name.items(), key=lambda kv: -kv[1][1])
    record = {
        "traced_jobs": [j.index for j in traced],
        "functions": {n: {"calls": c, "self_s": s} for n, (c, s) in top},
        "spans": len(tracer.spans),
        "errors": errors,
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.csv"))
    return metrics, dict(metrics), len(jobs_all), len(errors), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard",
                        help="input sizes; tiny is for the smoke tests")
    args = parser.parse_args(argv)
    load_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    started = time.time()
    try:
        if args.trace:
            metrics, shown, attempted, failed, record = per_layer(
                args.workload, args.seed, args.size, workdir)
        else:
            metrics, shown, attempted, failed, record = end_to_end(
                args.workload, args.seed, args.seconds, args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("provenance " + json.dumps(prov))
    for error in record["errors"][:5]:
        print(f"FAILED {error}")
    for line in report.metric_lines(shown):
        print(line)
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "started": started,
        "provenance": prov, "attempted": attempted, "failed": failed,
        "metrics": shown, **record,
    }
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(run_record, fh, indent=1)
    print(report.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
