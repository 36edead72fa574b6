#!/usr/bin/env python3
"""Benchmark of sindex: run_pipeline at three shapes plus the experiment harness.

    python3 bench/run.py --workload fig3-wide --seed 1 --seconds 15 --trace 0

Workloads: fig3-wide, table1-tall, large-split, harness-jobs2 (see
bench/README.md).  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run.  Each run also writes a result file, with the
environment it saw, under bench/results/.  Exits with code 2, printing no
result, when the package source (src/sindex) is not beside this directory.
"""

import os
import sys

# One BLAS thread, fixed before numpy is first imported; the harness's
# worker processes inherit the setting.  With the default thread count the
# same work runs several times slower on a 2-core machine and varies widely.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("fig3-wide", "table1-tall", "large-split", "harness-jobs2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC_DIR / "sindex" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC_DIR}/sindex", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    start = time.perf_counter()
    import sindex  # noqa: F401  (timed: part of setup_s)

    import_s = time.perf_counter() - start
    import workloads

    return workloads.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
