"""Smoke tests of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import jobs  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# every per-layer metric that is a count, or a ratio of counts
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["name"].endswith(".calls")
          or m["unit"] in ("count/job", "computed/job", "B/job", "level")
          or m["name"] in ("functions.cap_headroom", "functions.reduce_rep.hit_ratio")]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(name):
    """An output hook that damages one value of a job's output."""
    def fourier(inp, out):
        back, w_hat = out
        table = dict(back.table)
        rep = min(table)
        table[rep] = table[rep] + 1
        return workloads.functions.LocallyConstantFn(
            back.prime, back.support_exponent, back.resolution, table), w_hat

    def wavelet(inp, out):
        path = inp[1]["back"]
        with open(path) as fh:
            data = json.load(fh)
        cell = data["cells"][0]
        if "re" in cell:
            cell["re"] += 0.5
        else:
            cell["mag_num"] += cell["mag_den"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        return out

    def relation(inp, out):
        algebra, kernel, coefficients = out
        table = dict(kernel.table)
        rep = min(table)
        table[rep] = table[rep] + Fraction(1, 2)
        return algebra, workloads.functions.LocallyConstantFn(
            kernel.prime, kernel.support_exponent, kernel.resolution, table), coefficients

    return {"fourier-roundtrip": fourier, "wavelet-roundtrip": wavelet,
            "relation-suite": relation}[name]


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.workdir)

    def test_tiny_jobs_pass(self):
        for name in workloads.TINY:
            w = workloads.workload(name, "tiny", self.workdir)
            warm, timed = jobs.timed_loop(w, seed=5, seconds=0.1, warmup=1)
            for job in warm + timed:
                self.assertIsNone(job.error, f"{name}: {job.error}")
                self.assertGreater(job.work, 0)

    def test_negative_control_counts_failures(self):
        for name in workloads.TINY:
            w = workloads.workload(name, "tiny", self.workdir)
            warm, timed = jobs.timed_loop(w, seed=5, seconds=0.05, warmup=1,
                                          on_output=corrupt(name))
            done = warm + timed
            failed = sum(1 for j in done if j.error)
            self.assertGreater(failed / len(done), 0, name)
            self.assertIn('"correct": false', report.result_line(
                failed == 0, len(done), failed, {}))

    def test_standard_sizes_match_record(self):
        with open(os.path.join(BENCH, "workloads.json")) as fh:
            record = json.load(fh)["workloads"]
        self.assertEqual(set(record), set(workloads.STANDARD))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.STANDARD))
        f = workloads.STANDARD["fourier-roundtrip"]
        self.assertEqual(f.p ** (f.dense_m + f.dense_k), record["fourier-roundtrip"]["sizes"]["dense"]["N"])
        self.assertEqual(f.p ** f.sparse_exp, record["fourier-roundtrip"]["sizes"]["sparse"]["N"])
        w = workloads.STANDARD["wavelet-roundtrip"]
        self.assertEqual(workloads.window_spec(w.window), record["wavelet-roundtrip"]["sizes"]["window"])
        self.assertEqual(workloads.window_labels(w.p, w.window), record["wavelet-roundtrip"]["sizes"]["labels"])
        r = workloads.STANDARD["relation-suite"]
        self.assertEqual(r.kernel_cells, record["relation-suite"]["sizes"]["kernel"]["N"])


class ReportTest(unittest.TestCase):
    def test_tail_keeps_ten_beyond(self):
        self.assertEqual(report.tail(list(range(100))), (89, 90.0, 100, 10))
        self.assertEqual(report.tail([float(i) for i in range(11)]), (0.0, 100 / 11, 11, 10))
        self.assertEqual(report.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3, 0))

    def test_printer_and_result_line(self):
        metrics = {"job_s.p50": report.metric(0.25, "s", "n=40"),
                   "work_per_s": report.metric(1234.5, "1/s")}
        lines = report.metric_lines(metrics)
        self.assertEqual(len(lines), 2)
        self.assertTrue(lines[0].startswith("job_s.p50") and " s  (n=40)" in lines[0])
        result = json.loads(report.result_line(True, 7, 0, metrics))
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(result["metrics"]["work_per_s"], {"value": 1234.5, "unit": "1/s"})


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_originals(self):
        functions, cli = workloads.functions, workloads._cli()
        before = (functions.fourier, functions.reduce_rep, cli.fourier_fn,
                  workloads.exact.Cyc.__add__, workloads.exact.Cyc.__radd__)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(functions.fourier, before[0])
            self.assertIs(cli.fourier_fn, functions.fourier)
            self.assertIs(workloads.exact.Cyc.__radd__, workloads.exact.Cyc.__add__)
        finally:
            tracer.uninstall()
        after = (functions.fourier, functions.reduce_rep, cli.fourier_fn,
                 workloads.exact.Cyc.__add__, workloads.exact.Cyc.__radd__)
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_self_times_telescope(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.job = 0
            f = workloads.dense_table(random.Random(1), 3, 1, 1)
            workloads.functions.fourier(f)
            tracer.job = -1
        finally:
            tracer.uninstall()
        per_job, _ = tracer.summarize()
        self_total = sum(per_job[0][layer][1] for layer in LAYERS)
        outer = [s for s in tracer.spans if s[4] == 0 and s[5] == 0]
        self.assertAlmostEqual(self_total, sum(s[3] - s[2] for s in outer), places=9)


class CommandTest(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        for name in workloads.TINY:
            proc = run_bench("--workload", name, "--seed", "2", "--seconds", "0.3",
                             "--trace", "0", "--size", "tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_of(proc)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
            self.assertIn("failed_frac", proc.stdout)
            for m in result["metrics"].values():
                self.assertGreater(m["value"], 0)

    def test_traced_counts_repeat_and_cover_job_time(self):
        for name in workloads.TINY:
            results = []
            for _ in range(2):
                proc = run_bench("--workload", name, "--seed", "4", "--seconds", "1",
                                 "--trace", "1", "--size", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                results.append(result_of(proc))
            first, second = results
            self.assertTrue(first["correct"])
            self.assertEqual(set(first["metrics"]), {m["name"] for m in SPEC["per_layer"]})
            for key in COUNTS:
                self.assertEqual(first["metrics"][key], second["metrics"][key], f"{name} {key}")
            shares = sum(first["metrics"][f"{layer}.share"]["value"] for layer in LAYERS)
            self.assertAlmostEqual(shares, first["metrics"]["trace.coverage"]["value"])
            self.assertGreater(shares, 0.9)
            self.assertLess(shares, 1.1)

    def test_tree_without_program_fails_without_result(self):
        bare = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "fourier-roundtrip", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
