#!/usr/bin/env python3
"""List the members of a pipeline workload's dataset family that fail.

    python3 bench/find_faults.py --workload fig3-wide

Runs the workload's configuration once on every member of its fixed family
(fig3-wide: 300 members, about 10 s; table1-tall: 600, about 40 s;
large-split: 200, about 2.5 min, all with one BLAS thread) and prints each
failure with the pilot's mu and varsigma^2 = sigma^2 / mu^2.  Its output is
the source of each workload's `faults` in bench/workloads.py; it exits with
code 1 when the two differ.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from sindex.pilot import fit_pilot  # noqa: E402

import workloads  # noqa: E402


def main():
    pipeline = [n for n, c in workloads.WORKLOAD_CLASSES.items() if hasattr(c, "member")]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pipeline)
    args = parser.parse_args()
    wl = workloads.WORKLOAD_CLASSES[args.workload](seed=0)
    faults = []
    for index in range(wl.family_size):
        item = wl.member(index)
        outcome = wl.op(item)
        if isinstance(outcome, workloads.Failure):
            x1, y1, _, _ = wl.parts(item)
            cfg = item.config
            adj = fit_pilot(x1, y1, cfg.pilot_kind, cfg.pilot_lam).adjustments
            faults.append(index)
            print(
                f"{index}: {outcome.message}  (pilot mu={adj.mu:.4g}, "
                f"varsigma2={adj.sigma2 / adj.mu ** 2:.6g})",
                flush=True,
            )
    print(f"faults = {tuple(faults)}")
    return 0 if tuple(faults) == tuple(wl.faults) else 1


if __name__ == "__main__":
    sys.exit(main())
