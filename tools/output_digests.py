#!/usr/bin/env python3
"""SHA-256 of sindex outputs, for checking that a change keeps every byte.

    python3 tools/output_digests.py [CHECKOUT] > digests.json

CHECKOUT is the root of a sindex source tree (default: the one holding this
file); its src/ and bench/ are imported, and nothing in it is written.  The
JSON maps each output's name to its digest:

- `report.to_json()` of members 0-59 of fig3-wide, 0-39 of table1-tall and
  0-3 of large-split, each built and run by bench/workloads.py's own
  `member` and `op` (a failed member hashes the repr of its failure);
- every file `run_experiment` writes at seed 5 with jobs 1 and 2, for
  figure1 (4 replications), figure2 (6), figure3 (6), table1 (3) and a
  custom document (cubic, n = 200, p = 3, a 3 x 3 sigma, sparse(2), ls
  pilot, unregularized, 3 replications).

Run it on two checkouts and diff the two files.  BLAS runs one thread, as
outputs are bit-identical only at a fixed thread count.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

MEMBERS = {"fig3-wide": 60, "table1-tall": 40, "large-split": 4}
EXPERIMENT_REPS = {"figure1": 4, "figure2": 6, "figure3": 6, "table1": 3, "custom": 3}
CUSTOM_DOCUMENT = {
    "model": "cubic",
    "n": 200,
    "p": 3,
    "sigma": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]],
    "beta_scheme": "sparse(2)",
    "pilot": {"kind": "ls", "lambda": None},
    "penalty": {"kind": "none"},
    "inference": {"mode": "unregularized"},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(workloads):
    out = {}
    for name, count in MEMBERS.items():
        workload = workloads.WORKLOAD_CLASSES[name](seed=0)
        for index in range(count):
            outcome = workload.op(workload.member(index))
            text = repr(outcome) if isinstance(outcome, workloads.Failure) else outcome.to_json()
            out[f"{name}[{index}]"] = sha256(text.encode())
    return out


def experiment_digests():
    from sindex.experiments import ExperimentSpec, run_experiment

    out = {}
    for name, reps in EXPERIMENT_REPS.items():
        for jobs in (1, 2):
            with tempfile.TemporaryDirectory() as tmp:
                document = CUSTOM_DOCUMENT if name == "custom" else None
                spec = ExperimentSpec(
                    name, tmp, reps=reps, seed=5, jobs=jobs, custom_config=document
                )
                run_experiment(spec)
                for path in sorted(Path(tmp).iterdir()):
                    out[f"{name}/jobs{jobs}/{path.name}"] = sha256(path.read_bytes())
    return out


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    digests = {**pipeline_digests(workloads), **experiment_digests()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
