"""Workloads of the sindex benchmark: inputs, operations, checks and metrics.

Each workload is a closed loop: one operation at a time, in whole rounds of
the same operations.  A round is played in batches: a batch's inputs are
generated before it and its outputs checked after it, both outside the timed
intervals.  Set-up (timed as setup_s) imports sindex, generates the first
batch's inputs and makes one untimed warm-up call; it is repeated
SETUP_REPEATS times and the median is kept.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from statistics import median
from pathlib import Path

import numpy as np
import scipy

import sindex
from sindex.deconv import KERNELS, DeconvConfig
from sindex.errors import PipelineError
from sindex.experiments import ExperimentSpec, _simulate, run_experiment
from sindex.models import Dataset, DesignSpec
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline, split_data

import checks
from tracer import Tracer, fit_metrics

SETUP_REPEATS = 5
#: Pipeline inputs generated at a time; bounds the datasets held in memory.
BATCH = 60
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Entropy of the fixed dataset families the pipeline workloads draw from.
FAMILY_SEED = 1

HARNESS_REPS = 40
HARNESS_FILES = ("figure2_losses.csv", "figure2_mean_loss.csv", "manifest.json")

END_TO_END_UNITS = {"fits_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "models.gen_ms": "ms",
    "pipeline.self_ms": "ms",
    "pilot.ms": "ms",
    "pilot.trace_ms": "ms",
    "pilot.cho_calls": "count",
    "index.ms": "ms",
    "link.ms": "ms",
    "link.nw_ms": "ms",
    "coef.ms": "ms",
    "coef.newton_iters": "count",
    "coef.link_evals": "count",
    "coef.cho_calls": "count",
    "inference.ms": "ms",
    "inference.trace_ms": "ms",
    "inference.cho_calls": "count",
    "linalg.cho_mflop": "Mflop",
    "harness.serial_s": "s",
    "harness.parallel_s": "s",
    "harness.speedup": "ratio",
    "harness.overhead_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclasses.dataclass(frozen=True)
class Failure:
    """An operation that raised: pipeline stage, cause class and message."""

    stage: str
    cause: str
    message: str

    @property
    def key(self):
        return f"{self.stage}/{self.cause}"


@dataclasses.dataclass
class Item:
    """One pipeline input: the dataset, its true beta and its config."""

    label: str
    data: Dataset
    beta: np.ndarray
    config: PipelineConfig


def child_seed(entropy, *key):
    """The SeedSequence that SeedSequence(entropy).spawn(...) yields at key."""
    return np.random.SeedSequence(entropy, spawn_key=key)


def clock(fn, item):
    """fn(item) and its wall time in ms."""
    start = time.perf_counter()
    outcome = fn(item)
    return outcome, (time.perf_counter() - start) * 1e3


def report_digest(outcome):
    """Hash of every array and scalar an operation returned."""
    h = hashlib.sha256()
    if isinstance(outcome, Failure):
        h.update(repr(outcome).encode())
        return h.hexdigest()
    if isinstance(outcome, dict):
        for name in sorted(outcome):
            h.update(name.encode() + outcome[name])
        return h.hexdigest()
    adj = outcome.pilot.adjustments
    inf = outcome.inference
    parts = [
        outcome.pilot.beta,
        [adj.v, adj.gamma, adj.mu, adj.sigma2],
        outcome.index.w,
        [outcome.index.varsigma2],
        outcome.coef.beta,
        [outcome.coef.iterations, outcome.coef.grad_norm],
        [inf.mu_hat, inf.sigma2_hat],
        inf.t_stats,
        inf.ci_lo,
        inf.ci_hi,
        inf.p_values,
    ]
    if outcome.link is not None:
        parts += [outcome.link.values, outcome.link.deriv, [outcome.link.h]]
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    """Round loop, failure accounting and traced-run bookkeeping."""

    name = ""
    # Subclasses provide batches(round), op(item), traced_op(item) and
    # check(item, outcome); fits_per_op is the replications in one operation.
    fits_per_op = 1
    #: Nominal seconds of one round.  When set, a run plays a number of
    #: rounds fixed by --seconds alone, so its attempted and failed counts
    #: do not depend on timing; when None, it plays rounds until --seconds
    #: of timed wall-clock.
    round_s = None

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.op_ms = []
        self.overhead_ms = []
        self.attempted = 0
        self.failures = Counter()
        self.fits = 0
        self.problems = Counter()
        self.mismatches = 0
        self.summary = {}

    def play_batch(self, items):
        """Run one batch; returns its timed wall-clock seconds."""
        outcomes = []
        start = time.perf_counter()
        for item in items:
            outcome, ms = clock(self.op, item)
            self.op_ms.append(ms)
            self.attempted += 1
            if isinstance(outcome, Failure):
                self.failures[outcome.key] += 1
            outcomes.append(outcome)
            if self.tracer is not None:
                self.play_traced(item, outcome, ms)
        elapsed = time.perf_counter() - start
        for item, outcome in zip(items, outcomes):
            if not isinstance(outcome, Failure):
                self.fits += self.fits_per_op
                self.check(item, outcome)
        return elapsed

    def play_traced(self, item, plain, plain_ms):
        """Repeat an operation under the tracer; its output must not change.
        Returns the traced wall time in ms."""
        traced, traced_ms = clock(self.traced_op, item)
        self.overhead_ms.append(traced_ms - plain_ms)
        if report_digest(traced) != report_digest(plain):
            self.mismatches += 1
        return traced_ms

    def problem(self, reason):
        if reason:
            self.problems[reason] += 1

    def finish(self):
        """Checks over the whole run; called once after the last round."""

    def close(self):
        """Release what the workload created on disk."""


class PipelineWorkload(Workload):
    """Closed loop of run_pipeline calls over a fixed family of datasets.

    Member i of the family is drawn from SeedSequence(FAMILY_SEED) by
    experiments._simulate as the named experiment draws its replication i.
    Every member has been run once (bench/find_faults.py); those that fail
    are listed in `faults`.  A round runs `round_size` members, drawn without
    replacement by default_rng([seed, round]) from the others, followed by
    the faulty ones.
    """

    model = ""
    n = p = 0
    round_size = 1
    family_size = 0
    faults = ()
    calibration = False

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        # _simulate returns this design with every dataset; one shared copy
        # is kept instead, as a batch of p x p matrices would dominate memory.
        self.design = DesignSpec.identity(self.p)
        self.good = [i for i in range(self.family_size) if i not in self.faults]
        self.digests = {}
        self.t_values = []
        self.covered = []

    def batches(self, round_index):
        rng = np.random.default_rng([self.seed, round_index])
        order = [int(i) for i in rng.choice(self.good, self.round_size, replace=False)]
        order += self.faults
        for start in range(0, len(order), BATCH):
            yield [self.member(i) for i in order[start:start + BATCH]]

    def dataset(self, index, seedseq, config):
        if self.tracer is None:
            x, y, beta, _ = _simulate(self.model, self.n, self.p, "uniform-sphere", seedseq)
        else:
            with self.tracer.installed(), self.tracer.record("gen"):
                x, y, beta, _ = _simulate(self.model, self.n, self.p, "uniform-sphere", seedseq)
        return Item(f"{self.name}[{index}]", Dataset(x, y), beta, config)

    def op(self, item):
        try:
            return run_pipeline(item.data, item.config, design=self.design)
        except PipelineError as err:
            return Failure(err.stage, type(err.cause).__name__, str(err))

    def traced_op(self, item):
        with self.tracer.installed(), self.tracer.record("fit"), self.tracer.span("pipeline"):
            return self.op(item)

    def parts(self, item):
        """(x1, y1, x2, y2): the pilot's and the refit's rows."""
        x, y = item.data.x, item.data.y
        idx1, idx2 = split_data(len(y), item.config.split)
        return x[idx1], y[idx1], x[idx2], y[idx2]

    def check(self, item, report):
        # Members recur across rounds: a repeat must reproduce the first
        # output bit for bit, and only a member's first output is checked.
        digest = report_digest(report)
        if item.label in self.digests:
            if self.digests[item.label] != digest:
                self.problem(f"{item.label}: output differs between rounds")
            return
        self.digests[item.label] = digest
        x1, y1, x2, y2 = self.parts(item)
        cfg = item.config
        link = report.link
        self.problem(checks.monotone(link.values))
        self.problem(
            checks.stationarity(
                x2, y2, report.coef.beta, link.grid, link.values,
                link.deriv_floor, cfg.penalty_lam,
            )
        )
        if cfg.pilot_kind == "ridge":
            self.problem(checks.ridge_pilot(x1, y1, cfg.pilot_lam, report.pilot.beta))
        if self.calibration:
            inf = report.inference
            self.t_values.append(
                checks.t_stats(report.coef.beta, inf.mu_hat, inf.sigma2_hat, item.beta)
            )
            self.covered.append((inf.ci_lo <= item.beta) & (item.beta <= inf.ci_hi))
        self.check_more(item, report)

    def check_more(self, item, report):
        """Workload-specific checks of a member's first output."""

    def finish(self):
        self.summary["distinct_datasets"] = len(self.digests)
        if self.calibration and self.t_values:
            summary, reason = checks.calibration(
                np.concatenate(self.t_values), np.concatenate(self.covered), self.config.alpha
            )
            self.summary["calibration"] = summary
            self.problem(reason)

    def layer_metrics(self):
        out = fit_metrics(self.tracer)
        if "sindex.models" not in " ".join(self.tracer.missing):
            out["models.gen_ms"] = median([g.ms.get("models", 0.0) for g in self.tracer.gens])
        # No experiment harness runs here; its metrics read 0.
        for name in ("harness.serial_s", "harness.parallel_s", "harness.speedup",
                     "harness.overhead_ms"):
            out[name] = 0.0
        return out


class Fig3Wide(PipelineWorkload):
    """figure3's configuration: p > n, ridge pilot and refit, fixed bandwidth.

    Member i is _simulate(..., SeedSequence(1).spawn(300)[i]).  Members 195
    ([coef] NonConvergenceError) and 224 ([link] KernelOverflowError) fail
    today.  A round is the whole family: the 298 others in an order drawn
    from --seed, then the two, so the faults keep their share of 2 in 300.
    A round takes about 10 s; a run plays round(seconds / 10) rounds, at
    least one, so it fails exactly 2 per round.
    """

    name = "fig3-wide"
    model, n, p = "cloglog", 250, 500
    round_size = 298
    round_s = 10.0
    family_size = 300
    faults = (195, 224)
    calibration = True
    config = PipelineConfig(
        pilot_kind="ridge",
        pilot_lam=1.0,
        deconv=DeconvConfig(bandwidth_mode="fixed", h=2.5),
        penalty="ridge",
        penalty_lam=0.1,
        inference_mode="ridge",
        alpha=0.05,
        split=SplitConfig(no_split=True),
    )

    def member(self, index):
        return self.dataset(index, child_seed(FAMILY_SEED, index), self.config)


class Table1Tall(PipelineWorkload):
    """table1's logit row: n >> p, logistic MLE pilot, flat-top kernel.

    Member i is table1's replication i at experiment seed 1.  Member 73 of
    SeedSequence(33) (see CHANGES.md) showed that a rare member can fail in
    the refit; failing members of this family are left out.
    """

    name = "table1-tall"
    model, n, p = "logit", 2000, 50
    round_size = 20
    family_size = 600
    faults = ()
    config = PipelineConfig(
        pilot_kind="logit-mle",
        pilot_lam=None,
        deconv=DeconvConfig(kernel=KERNELS["flattop"]),
        penalty="none",
        penalty_lam=0.0,
        inference_mode="unregularized",
        split=SplitConfig(no_split=True),
    )

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.ev_refit = []
        self.ev_mle = []

    def member(self, index):
        return self.dataset(index, child_seed(FAMILY_SEED, index, 0), self.config)

    def check_more(self, item, report):
        x, y = item.data.x, item.data.y
        self.problem(checks.logit_score(x, y, report.pilot.beta))
        self.ev_refit.append(checks.effective_variance(report.coef.beta, item.beta))
        self.ev_mle.append(checks.effective_variance(report.pilot.beta, item.beta))

    def finish(self):
        super().finish()
        if self.ev_refit:
            summary, reason = checks.efficiency(self.ev_refit, self.ev_mle)
            self.summary["efficiency"] = summary
            self.problem(reason)


class LargeSplit(PipelineWorkload):
    """The large shape: n=4000, p=800, ridge, theory bandwidth, split 0.5.

    Member i and its split seed are figure3's replication i at experiment
    seed 1.
    """

    name = "large-split"
    model, n, p = "cloglog", 4000, 800
    round_size = 2
    family_size = 200
    faults = ()
    calibration = True
    config = PipelineConfig(
        pilot_kind="ridge",
        pilot_lam=1.0,
        deconv=DeconvConfig(),
        penalty="ridge",
        penalty_lam=0.1,
        inference_mode="ridge",
        alpha=0.05,
        split=SplitConfig(fraction=0.5),
    )

    def member(self, index):
        split_seed = int(child_seed(FAMILY_SEED, index, 1).generate_state(1)[0])
        config = dataclasses.replace(self.config, split=SplitConfig(fraction=0.5, seed=split_seed))
        return self.dataset(index, child_seed(FAMILY_SEED, index, 0), config)


class HarnessJobs2(Workload):
    """run_experiment('figure2') through a process pool of 2 workers."""

    name = "harness-jobs2"
    fits_per_op = HARNESS_REPS * 4  # four sample sizes, 64 to 512

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.out_root = RESULTS_DIR / f"tmp-{os.getpid()}"
        self.reference = None
        self.serial_ms = []
        self.harness_overhead_ms = []

    def batches(self, round_index):
        yield [self.seed]

    def run(self, jobs, out_name):
        out_dir = self.out_root / out_name
        spec = ExperimentSpec(
            name="figure2", out_dir=str(out_dir), reps=HARNESS_REPS, seed=self.seed, jobs=jobs
        )
        try:
            run_experiment(spec)
        except Exception as err:  # noqa: BLE001 - one failed experiment is one failed operation
            stage = getattr(err, "stage", "experiment")
            cause = type(getattr(err, "cause", err)).__name__
            return Failure(stage, cause, str(err))
        return {name: (out_dir / name).read_bytes() for name in HARNESS_FILES}

    def op(self, item):
        return self.run(2, "jobs2")

    def serial_op(self, item):
        return self.run(1, "jobs1")

    def traced_op(self, item):
        with self.tracer.installed():
            return self.run(1, "jobs1-traced")

    def play_traced(self, item, plain, plain_ms):
        # The traced run also times jobs=1 untraced, the base of the speed-up
        # and of the tracing overhead.
        serial, serial_ms = clock(self.serial_op, item)
        self.serial_ms.append(serial_ms)
        self.set_reference(serial)
        first_rep = len(self.tracer.fits)
        traced_ms = super().play_traced(item, serial, serial_ms)
        rep_ms = sum(rec.ms["rep"] for rec in self.tracer.fits[first_rep:])
        self.harness_overhead_ms.append(traced_ms - rep_ms)

    def set_reference(self, serial):
        if self.reference is not None:
            return
        if isinstance(serial, Failure):
            self.problem(f"jobs=1 reference run failed: {serial.key}")
        else:
            self.reference = serial

    def check(self, item, outputs):
        if self.reference is None:
            self.set_reference(self.serial_op(item))
        if self.reference is not None and outputs != self.reference:
            differ = sorted(n for n in HARNESS_FILES if outputs[n] != self.reference[n])
            self.problem(f"jobs=2 output differs from jobs=1 in {', '.join(differ)}")
        losses = json.loads(outputs["manifest.json"])["summary"]["mean_loss"]
        self.summary["mean_loss"] = losses
        if not losses["512"] < losses["64"]:
            self.problem(
                f"mean link loss at n=512 ({losses['512']:.4f}) is not below n=64 "
                f"({losses['64']:.4f})"
            )

    def layer_metrics(self):
        out = fit_metrics(self.tracer)
        if self.tracer.fits and "sindex.experiments.sample" not in " ".join(self.tracer.missing):
            out["models.gen_ms"] = median([rec.ms.get("models", 0.0) for rec in self.tracer.fits])
        serial_s = median(self.serial_ms) / 1e3
        parallel_s = median(self.op_ms) / 1e3
        out["harness.serial_s"] = serial_s
        out["harness.parallel_s"] = parallel_s
        out["harness.speedup"] = serial_s / parallel_s
        if "_figure2_rep" not in " ".join(self.tracer.missing):
            out["harness.overhead_ms"] = median(self.harness_overhead_ms)
        return out

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


WORKLOAD_CLASSES = {cls.name: cls for cls in (Fig3Wide, Table1Tall, LargeSplit, HarnessJobs2)}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries():
    """Thread count and build string of every OpenBLAS loaded in this process,
    read back from the libraries themselves."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "threads": _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int),
                "config": config.decode() if config else None,
            }
        )
    return out


def environment():
    return {
        "blas": blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sindex": sindex.__version__,
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def peak_rss_mb():
    """Peak resident set of this process and of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, child), own, child


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def tail(values):
    """The highest percentile with ten samples beyond it, from 40 samples on."""
    if len(values) < 40:
        return None
    pct = 100.0 * (1.0 - 10.0 / len(values))
    return {"pct": round(pct, 2), "ms": float(np.percentile(values, pct)), "samples": len(values)}


def execute(workload, seconds):
    """Set up, then play whole rounds: a fixed number of them if the
    workload sets round_s, else until `seconds` of timed wall-clock."""
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = next(workload.batches(0))
        workload.op(items[0])
        setup.append(time.perf_counter() - start)
        del items  # release the inputs before drawing new ones
    fixed = max(1, round(seconds / workload.round_s)) if workload.round_s else None
    timed = 0.0
    rounds = 0
    while (rounds < fixed) if fixed else (rounds == 0 or timed < seconds):
        for items in workload.batches(rounds):
            timed += workload.play_batch(items)
            del items  # release the batch before the next is generated
        rounds += 1
    workload.finish()
    return {"setup_runs_s": setup, "timed_s": timed, "rounds": rounds}


def main(args, import_s):
    env = environment()
    threads = {lib["threads"] for lib in env["blas"]} - {None}
    if threads - {1}:
        print(f"error: BLAS reports {sorted(threads)} threads, expected 1", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    workload = WORKLOAD_CLASSES[args.workload](args.seed, tracer)
    try:
        run = execute(workload, args.seconds)
    finally:
        workload.close()
    rss, rss_own, rss_child = peak_rss_mb()
    failed = sum(workload.failures.values())
    if args.trace:
        layer = workload.layer_metrics()
        layer["trace.overhead_ms"] = median(workload.overhead_ms)
        # A metric whose wrapped name no longer exists is left out; the
        # names are listed under "missing" in the detail line.
        metrics = {
            name: {"value": float(layer[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
            if name in layer
        }
    else:
        metrics = {
            "fits_per_s": workload.fits / run["timed_s"],
            "op_ms_p50": median(workload.op_ms),
            "setup_s": import_s + median(run["setup_runs_s"]),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    problems = dict(workload.problems)
    if workload.mismatches:
        problems["traced output differs from untraced output"] = workload.mismatches
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run["rounds"],
        "timed_s": run["timed_s"],
        "import_s": import_s,
        "setup_runs_s": run["setup_runs_s"],
        "op_ms_tail": tail(workload.op_ms),
        "failures": dict(workload.failures),
        "problems": problems,
        "checks": workload.summary,
        "peak_rss_mb": {"self": rss_own, "largest_child": rss_child},
        "missing": tracer.missing if tracer else [],
        "environment": env,
    }
    result = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps({"result": result, "detail": detail}, indent=2) + "\n")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0
