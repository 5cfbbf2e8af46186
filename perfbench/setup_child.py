"""One cold start, measured in a fresh process: `import padic_wavelets` plus
the first job of a workload.  Prints one JSON object.

    python3 perfbench/setup_child.py --workload NAME --seed N [--size standard]
"""

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="standard")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

    start = time.perf_counter()
    import padic_wavelets  # noqa: F401
    import_s = time.perf_counter() - start

    import jobs
    import workloads

    w = workloads.workload(args.workload, args.size, args.workdir)
    inp = w.make_input(random.Random(jobs.job_seed(args.seed, 0)))
    error = None
    start = time.perf_counter()
    try:
        out = w.run(inp)
    except Exception as exc:  # a raising cold job is a failed job
        error = f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - start
    if error is None:
        try:
            w.check(inp, out)
        except Exception as exc:  # so is a wrong output
            error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"import_s": import_s, "job_s": job_s, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
