"""Closed-loop job execution: one client, one job at a time, every output
checked and every failure counted.  The reference loop of `speed` is timed
before the first job and after every job, so each job has the machine speed
measured on both sides of it."""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import speed
from tracer import NO_JOB


def job_seed(seed: int, index: int) -> int:
    """Seed of job `index` in a run with `seed`; job 0 is the cold-start job."""
    return seed * 1_000_003 + index


@dataclass
class Job:
    index: int
    seconds: float  # wall time of the program calls only
    work: int  # work units completed; 0 when the job failed
    error: str | None = None
    counters: dict = field(default_factory=dict)
    reference: float = speed.REFERENCE_S  # reference loop seconds around the job

    @property
    def normalized(self) -> float:
        return speed.normalized(self.seconds, self.reference)


def attempt(w, seed: int, index: int, tracer=None, on_output=None) -> Job:
    """Make job `index`'s input, time its program calls, check the output.

    `on_output` may replace the output before the check (the negative
    control in the tests corrupts it there).  With a tracer, spans and
    counters of the program calls are attributed to this job; the input
    and the check are recorded under NO_JOB."""
    inp = w.make_input(random.Random(job_seed(seed, index)))
    counters: dict = {}
    if tracer is not None:
        cache_before = tracer.reduce_rep.cache_info()
        tracer.counters, tracer.job = counters, index
    start = time.perf_counter()
    try:
        out = w.run(inp)
    except Exception as exc:  # a raising job is a failed job
        return Job(index, time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}")
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.counters, tracer.job = {}, NO_JOB
            cache_after = tracer.reduce_rep.cache_info()
            counters["functions.reduce_rep.hits"] = cache_after.hits - cache_before.hits
            counters["functions.reduce_rep.misses"] = cache_after.misses - cache_before.misses
    if on_output is not None:
        out = on_output(inp, out)
    try:
        work = w.check(inp, out)
    except Exception as exc:  # a wrong output or a raising check both fail
        return Job(index, seconds, 0, f"{type(exc).__name__}: {exc}", counters)
    return Job(index, seconds, work, None, counters)


def run_jobs(w, seed: int, indices, tracer=None, on_output=None,
             deadline: float | None = None) -> list[Job]:
    """Run jobs `indices` in turn; with a `deadline` (a perf_counter value),
    stop at the first job boundary past it, after at least one job.  Each
    job gets the mean of the reference loop times just before and after it."""
    done = []
    before = speed.reference_seconds()
    for index in indices:
        if deadline is not None and done and time.perf_counter() >= deadline:
            break
        job = attempt(w, seed, index, tracer, on_output)
        after = speed.reference_seconds()
        job.reference = (before + after) / 2
        before = after
        done.append(job)
    return done


def timed_loop(w, seed: int, seconds: float, warmup: int, on_output=None):
    """Warm-up jobs, then jobs until `seconds` of wall time have passed.

    Returns (warm-up jobs, timed jobs)."""
    warm = run_jobs(w, seed, range(warmup), on_output=on_output)
    timed = run_jobs(w, seed, itertools.count(warmup), on_output=on_output,
                     deadline=time.perf_counter() + seconds)
    return warm, timed
