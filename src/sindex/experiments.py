"""Monte Carlo experiment harness emitting plot-ready CSV files.

Five named experiments (replications in REPS), each a function of its
ExperimentSpec returning the CSV tables and manifest run_experiment writes:

  figure1  pooled index z-scores per model (normality of the debiased index)
  figure2  mean squared link loss on [-3, 3] against the sample size
  figure3  pooled t-statistics and CI coverage under the ridge penalty
  table1   effective variance of least squares, of the model's pilot (the
           pipeline's own) and of the refit
  custom   replicated pipeline runs from a JSON config document

Every replication derives its seeds from one SeedSequence counter, so
results are reproducible and independent of worker scheduling.  With
jobs > 1 an experiment runs all its replications through one process pool;
every replication runs with one BLAS thread.
"""

import contextlib
import csv
import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .deconv import KERNELS, DeconvConfig, estimate_link
from .errors import ConfigError
from .inference import effective_variance_oracle
from .models import (
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from .pilot import debias_index, fit_pilot, index_zscores, least_squares_fit
from .pipeline import PipelineConfig, SplitConfig, _fill, check_seed, run_pipeline

#: Replications per experiment: (desk scale, paper scale).
REPS = {
    "figure1": (200, 1000),
    "figure2": (50, 1000),
    "figure3": (300, 1000),
    "table1": (100, 100),
    "custom": (100, 100),
}

#: Pilot of each response family: the MLE of the family's canonical link
#: for binary and count responses, least squares for Gaussian ones.
FAMILY_PILOT = {"bernoulli": "logit-mle", "poisson": "pois-mle", "gaussian": "ls"}


def _pilot_kind(model_name: str) -> str:
    """The pilot kind the experiments fit to data of the named model."""
    return FAMILY_PILOT[model_lookup(model_name).response]


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    out_dir: str
    reps: Optional[int] = None
    seed: int = 20240
    models: Optional[Sequence[str]] = None
    paper_scale: bool = False
    jobs: int = 1
    custom_config: Optional[dict] = None

    def __post_init__(self):
        if self.name not in REPS:
            raise ConfigError(
                f"unknown experiment {self.name!r}; choose from {tuple(REPS)}"
            )
        if self.reps is None:
            object.__setattr__(self, "reps", REPS[self.name][self.paper_scale])
        if self.reps < 1:
            raise ConfigError("replications must be >= 1")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, not {self.jobs}")
        check_seed(self.seed)
        if self.name == "custom" and self.models:
            raise ConfigError("custom experiments take their model from the config document")
        models = list(self.models or ())
        # An unknown name fails here, before any replication.
        if len({model_lookup(name).name for name in models}) < len(models):
            raise ConfigError(f"each model may be named once; got {models}")
        if self.name in ("figure2", "figure3") and len(models) > 1:
            raise ConfigError(f"{self.name} runs one model; got {models}")


def _children(seedseq, count: int) -> List[np.random.SeedSequence]:
    """The children spawn(count) gives a fresh copy of seedseq; unlike
    spawn(), leaves seedseq as it is, so it draws the same data each time."""
    return [
        np.random.SeedSequence(
            seedseq.entropy,
            spawn_key=(*seedseq.spawn_key, i),
            pool_size=seedseq.pool_size,
        )
        for i in range(count)
    ]


#: Replications a pool worker takes per round trip.  Larger chunks save
#: little more and lengthen the tail at the end of a run.
_CHUNK = 4


def _openblas_symbol(lib, name):
    """lib's OpenBLAS function `name` under any of its exported spellings,
    or None."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                return fn
    return None


def _openblas_thread_controls() -> List[tuple]:
    """(get, set) of the thread count of every OpenBLAS mapped into this
    process (numpy and scipy each bundle one) that exports both; none where
    /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and "/" in line
            }
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # the mapped file is gone, e.g. "(deleted)"
            continue
        get = _openblas_symbol(lib, "get_num_threads")
        set_threads = _openblas_symbol(lib, "set_num_threads")
        if get is not None and set_threads is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            controls.append((get, set_threads))
    return controls


def _pin_one_blas_thread() -> List[tuple]:
    """Set every loaded OpenBLAS to one thread; returns (set, previous
    count) per library."""
    restore = []
    for get, set_threads in _openblas_thread_controls():
        restore.append((set_threads, get()))
        set_threads(1)
    return restore


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then give
    each library back its thread count."""
    restore = _pin_one_blas_thread()
    try:
        yield
    finally:
        for set_threads, threads in restore:
            set_threads(threads)


def _map_reps(fn, args_list, jobs: int):
    """[fn(*args) for args in args_list], in order.  With jobs > 1 the calls
    run in one pool of at most `jobs` workers, _CHUNK calls per round trip.

    Every call runs with one BLAS thread, in this process and in each
    worker: `jobs` workers each running the parent's thread count would
    oversubscribe the cores, and the same thread count on both paths keeps
    the results independent of `jobs`."""
    if jobs <= 1 or len(args_list) <= 1:
        with _one_blas_thread():
            return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(args_list)), initializer=_pin_one_blas_thread
    ) as pool:
        return list(pool.map(fn, *zip(*args_list), chunksize=_CHUNK))


def _run_groups(fn, groups, reps: int, jobs: int) -> List[list]:
    """fn(*args, seedseq) for each (entropy, args) of groups and each
    seedseq of SeedSequence(entropy).spawn(reps), through one _map_reps
    call; returns the results as one list per group."""
    tasks = [
        (*args, seedseq)
        for entropy, args in groups
        for seedseq in np.random.SeedSequence(entropy).spawn(reps)
    ]
    results = _map_reps(fn, tasks, jobs)
    return [results[i:i + reps] for i in range(0, len(tasks), reps)]


def _ks_distance(values) -> float:
    """Kolmogorov-Smirnov distance of the sample from N(0, 1): the
    statistic of scipy's two-sided `kstest(values, "norm")`, with the same
    operations in the same order.  NaN if any entry is NaN."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = ndtr(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    # Both maxima are NaN when any entry is, so NaN propagates here too.
    return float(d_plus if d_plus > d_minus else d_minus)


def _write_outputs(out_dir, tables, docs) -> None:
    """Create out_dir; write each {name: (header, rows)} of tables as CSV
    and each {name: document} of docs as JSON.  Every file sindex writes
    comes through here.  CSV rows end in CRLF; csv.writer quotes the header
    as needed, and each row is one join of str() of its cells (numbers, or
    names needing no quotes; a float's str is its round-trip repr).  JSON is
    indented by 2 with sorted keys and a trailing newline."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(out_dir, name), "w", newline="") as handle:
            csv.writer(handle).writerow(header)
            handle.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
    for name, doc in docs.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _simulate(model_name, n, p, scheme, seedseq, design=None):
    """One synthetic dataset with rows drawn from N_p(0, Sigma) of `design`
    (identity when omitted); returns (X, y, beta, design)."""
    design = DesignSpec.identity(p) if design is None else design
    s_beta, s_x, s_y = _children(seedseq, 3)
    beta = sample_coefficients(p, scheme, design, s_beta)
    x = sample_design(n, design, s_x)
    y = generate_responses(x, beta, model_lookup(model_name), s_y)
    return x, y, beta, design


def _replicate(model_name, n, p, scheme, config, seedseq, design=None):
    """One pipeline replication: the data from child 0 of seedseq (drawn by
    _simulate), the split seed from child 1; returns (X, y, beta, report)."""
    s_data, s_split = _children(seedseq, 2)
    x, y, beta, design = _simulate(model_name, n, p, scheme, s_data, design)
    seed = int(s_split.generate_state(1)[0])
    config = replace(config, split=replace(config.split, seed=seed))
    return x, y, beta, run_pipeline(Dataset(x, y), config, design=design)


# ---------------------------------------------------------------------------
# figure1: index normality
# ---------------------------------------------------------------------------

#: (n, p) per model; every other model uses FIGURE1_DEFAULT_SHAPE.
FIGURE1_SHAPES = {"cloglog": (500, 50)}
FIGURE1_DEFAULT_SHAPE = (500, 200)


def _figure1_rep(model_name, n, p, pilot_kind, seedseq) -> float:
    x, y, beta, _ = _simulate(model_name, n, p, "uniform-sphere", seedseq)
    pilot = fit_pilot(x, y, pilot_kind)
    est = debias_index(pilot)
    return float(index_zscores(est, x, beta, pilot)[0])


def figure1(spec: ExperimentSpec) -> tuple:
    """Pooled first-coordinate z-scores of the index estimator per model."""
    models = list(spec.models or ("cloglog", "xsqrt", "cubic", "piecewise"))
    groups = [
        (spec.seed, (name, *FIGURE1_SHAPES.get(name, FIGURE1_DEFAULT_SHAPE), _pilot_kind(name)))
        for name in models
    ]
    results = _run_groups(_figure1_rep, groups, spec.reps, spec.jobs)
    rows = []
    summary = {}
    for (_, (model_name, n, p, pilot_kind)), zs in zip(groups, results):
        rows.extend((model_name, rep, z) for rep, z in enumerate(zs))
        zs = np.asarray(zs)
        summary[model_name] = {
            "n": n,
            "p": p,
            "pilot": pilot_kind,
            "ks_distance": _ks_distance(zs),
            "mean": float(np.mean(zs)),
            "variance": float(np.var(zs)),
        }
    manifest = {
        "models": models,
        "split": "none (index step uses every observation)",
        "summary": summary,
    }
    return {"figure1_zscores.csv": (["model", "rep", "z"], rows)}, manifest


# ---------------------------------------------------------------------------
# figure2: link consistency
# ---------------------------------------------------------------------------


#: Aspect ratio p / n of every figure2 sample size.
FIGURE2_RATIO = 0.6

#: figure2's sample sizes: (desk scale, paper scale).
FIGURE2_NS = ((64, 128, 256, 512), (32, 64, 128, 256, 512, 1024))


def _figure2_rep(model_name, n, p, pilot_kind, seedseq) -> float:
    x, y, beta, _ = _simulate(model_name, n, p, "uniform-sphere", seedseq)
    pilot = fit_pilot(x, y, pilot_kind)
    est = debias_index(pilot)
    link = estimate_link(est, y, DeconvConfig())
    truth = model_lookup(model_name).link(link.grid)
    return float(np.mean((link.values - truth) ** 2))


def figure2(spec: ExperimentSpec) -> tuple:
    """Mean squared loss of the link estimate on [-3, 3] against n."""
    model = spec.models[0] if spec.models else "piecewise"
    ns = FIGURE2_NS[spec.paper_scale]
    pilot_kind = _pilot_kind(model)
    groups = [
        (spec.seed + n, (model, n, max(1, int(round(FIGURE2_RATIO * n))), pilot_kind))
        for n in ns
    ]
    results = _run_groups(_figure2_rep, groups, spec.reps, spec.jobs)
    rows = []
    mean_losses = {}
    for n, losses in zip(ns, results):
        rows.extend((n, rep, v) for rep, v in enumerate(losses))
        mean_losses[n] = float(np.mean(losses))
    manifest = {
        "model": model,
        "ratio": FIGURE2_RATIO,
        "ns": list(ns),
        "pilot": pilot_kind,
        "split": "none (link step uses every observation)",
        "summary": {"mean_loss": mean_losses},
    }
    tables = {
        "figure2_losses.csv": (["n", "rep", "sq_loss"], rows),
        "figure2_mean_loss.csv": (["n", "mean_sq_loss"], list(mean_losses.items())),
    }
    return tables, manifest


# ---------------------------------------------------------------------------
# figure3: marginal normality and CI coverage
# ---------------------------------------------------------------------------


#: (n, p) of figure3: p / n = 2.
FIGURE3_SHAPE = (250, 500)

#: Ridge pilot, ridge refit and ridge-mode inference, with no split.  The
#: bandwidth is fixed and wide: with p/n = 2 the pilot's index noise is
#: large, so the usable link estimate is a heavily smoothed, nearly linear
#: curve, for which the t-statistic calibration is exact (the same
#: fixed-bandwidth choice as the reference experiments).
FIGURE3_CONFIG = PipelineConfig(
    pilot_kind="ridge",
    pilot_lam=1.0,
    deconv=DeconvConfig(bandwidth_mode="fixed", h=2.5),
    penalty="ridge",
    penalty_lam=0.1,
    inference_mode="ridge",
    alpha=0.05,
    split=SplitConfig(no_split=True),
)


def _figure3_rep(model_name, n, p, config, scheme, seedseq) -> tuple:
    _, _, beta, report = _replicate(model_name, n, p, scheme, config, seedseq)
    inf = report.inference
    t1 = float(
        np.sqrt(p) * (report.coef.beta[0] - inf.mu_hat * beta[0]) / np.sqrt(inf.sigma2_hat)
    )
    covered = bool(inf.ci_lo[0] <= beta[0] <= inf.ci_hi[0])
    # A degenerate pilot (mu ~ 0) can blow up the index noise scale past
    # what the fixed bandwidth tolerates; select_bandwidth then takes the
    # theory bandwidth, which scales with the noise.
    return t1, covered, report.link.h != config.deconv.h


def figure3(spec: ExperimentSpec) -> tuple:
    """Pooled T_1 statistics and empirical CI coverage (ridge mode), at
    FIGURE3_SHAPE with FIGURE3_CONFIG."""
    model = spec.models[0] if spec.models else "cloglog"
    n, p = FIGURE3_SHAPE
    config = FIGURE3_CONFIG
    scheme = "uniform-sphere"
    group = (spec.seed, (model, n, p, config, scheme))
    [results] = _run_groups(_figure3_rep, [group], spec.reps, spec.jobs)
    t_stats = np.array([r[0] for r in results])
    covered = np.array([r[1] for r in results])
    fallbacks = int(sum(r[2] for r in results))
    manifest = {
        "model": model,
        "n": n,
        "p": p,
        "alpha": config.alpha,
        "pilot": {"kind": config.pilot_kind, "lambda": config.pilot_lam},
        "penalty": {"kind": config.penalty, "lambda": config.penalty_lam},
        "bandwidth": {"mode": config.deconv.bandwidth_mode, "h": config.deconv.h},
        "beta_scheme": scheme,
        "split": "none (every observation reused in both stages)",
        "summary": {
            "coverage": float(np.mean(covered)),
            "ks_distance": _ks_distance(t_stats),
            "t_mean": float(np.mean(t_stats)),
            "t_variance": float(np.var(t_stats)),
            "bandwidth_fallbacks": fallbacks,
        },
    }
    rows = [(rep, t, int(c)) for rep, (t, c, _) in enumerate(results)]
    return {"figure3_tstats.csv": (["rep", "T1", "covered"], rows)}, manifest


# ---------------------------------------------------------------------------
# table1: effective-variance comparison
# ---------------------------------------------------------------------------

#: (n, p) of table1; the reference does not state them.
TABLE1_SHAPE = (2000, 50)

#: table1's models, in its row order.
TABLE1_MODELS = (
    "logit", "cloglog", "poisson", "xsqrt", "cubic", "cubic+", "piecewise", "piecewise+"
)

#: table1's pipeline, with each model's pilot (FAMILY_PILOT) in place of
#: pilot_kind.  Flat-top kernel: the efficiency statistic is scale
#: sensitive, so the link estimate must carry no smoothing attenuation.
TABLE1_CONFIG = PipelineConfig(
    pilot_lam=None,
    deconv=DeconvConfig(kernel=KERNELS["flattop"]),
    penalty="none",
    penalty_lam=0.0,
    inference_mode="unregularized",
    split=SplitConfig(no_split=True),
)


def _table1_rep(model_name, n, p, pilot_kind, seedseq) -> dict:
    """Effective variance of least squares, of the pipeline's pilot (when
    it is not least squares) and of the refit, in that order."""
    config = replace(TABLE1_CONFIG, pilot_kind=pilot_kind)
    x, y, beta, report = _replicate(model_name, n, p, "uniform-sphere", config, seedseq)
    ls = report.pilot.beta if pilot_kind == "ls" else least_squares_fit(x, y)
    fits = {"ls": ls, pilot_kind: report.pilot.beta, "proposed": report.coef.beta}
    return {kind: effective_variance_oracle(b, beta) for kind, b in fits.items()}


def table1(spec: ExperimentSpec) -> tuple:
    """Mean and sd of the effective-variance statistic per (model, estimator)."""
    n, p = TABLE1_SHAPE
    models = list(spec.models or TABLE1_MODELS)
    groups = [(spec.seed, (name, n, p, _pilot_kind(name))) for name in models]
    results = _run_groups(_table1_rep, groups, spec.reps, spec.jobs)
    rows = []
    summary = {}
    for model_name, group in zip(models, results):
        summary[model_name] = {}
        for kind in group[0]:
            values = np.array([r[kind] for r in group])
            mean, sd = float(values.mean()), float(values.std())
            rows.append((model_name, kind, mean, sd))
            summary[model_name][kind] = {"mean": mean, "sd": sd}
    manifest = {
        "models": models,
        "n": n,
        "p": p,
        "split": "none (every observation reused in both stages)",
        "note": "paper does not state (n, p) for this table; desk-scale values used",
        "summary": summary,
    }
    return {"table1_efficiency.csv": (["model", "estimator", "mean", "sd"], rows)}, manifest


def _custom_rep(model_name, n, p, scheme, design, config, seedseq) -> tuple:
    _, _, beta, report = _replicate(model_name, n, p, scheme, config, seedseq, design)
    ev = effective_variance_oracle(report.coef.beta, beta)
    return report.inference.mu_hat, report.inference.sigma2_hat, ev


#: The keys of a custom experiment document besides the pipeline sections,
#: with defaults that give each its type; model, n and p must be given.
CUSTOM_DEFAULTS = {
    "model": "",
    "n": 0,
    "p": 0,
    "sigma": "identity",
    "beta_scheme": "uniform-sphere",
}


def _custom_design(sigma, p: int) -> DesignSpec:
    """The design of a custom document's sigma: "identity" or a p x p list."""
    if sigma == "identity":
        return DesignSpec.identity(p)
    try:
        matrix = np.array(sigma, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or entries not numbers
        matrix = None
    if matrix is None or matrix.shape != (p, p):
        raise ConfigError(
            f"config value sigma must be 'identity' or a {p} x {p} list of "
            f"numbers, not {sigma!r:.60}"
        )
    return DesignSpec.from_sigma(matrix)


def custom(spec: ExperimentSpec) -> tuple:
    """Replicated pipeline runs from the spec's JSON config document."""
    if spec.custom_config is None:
        raise ConfigError("custom experiments need a config document")
    doc = _fill({**CUSTOM_DEFAULTS, **PipelineConfig().to_dict()}, spec.custom_config)
    if not {"model", "n", "p"} <= spec.custom_config.keys():
        raise ConfigError("custom experiments need model, n, and p")
    model_name, n, p, sigma, scheme = (doc.pop(key) for key in CUSTOM_DEFAULTS)
    model_lookup(model_name)  # an unknown name fails before any replication
    if n < 1 or p < 1:
        raise ConfigError(f"custom experiments need n >= 1 and p >= 1, not {n} and {p}")
    design = _custom_design(sigma, p)
    config = PipelineConfig.from_dict(doc)
    group = (spec.seed, (model_name, n, p, scheme, design, config))
    [results] = _run_groups(_custom_rep, [group], spec.reps, spec.jobs)
    eff_vars = [ev for _, _, ev in results]
    manifest = {
        "model": model_name,
        "n": n,
        "p": p,
        "config": config.to_dict(),
        "summary": {
            "effective_variance_mean": float(np.mean(eff_vars)),
            "effective_variance_sd": float(np.std(eff_vars)),
        },
    }
    header = ["rep", "mu_hat", "sigma2_hat", "effective_variance"]
    rows = [(rep, *map(float, r)) for rep, r in enumerate(results)]
    return {"custom_replications.csv": (header, rows)}, manifest


#: Each experiment by name: a function of the spec returning its CSV tables
#: {file name: (header, rows)} and its manifest.
EXPERIMENTS = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "table1": table1,
    "custom": custom,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the experiment the spec names, write its tables and manifest.json
    to spec.out_dir, and return the manifest."""
    tables, manifest = EXPERIMENTS[spec.name](spec)
    manifest = {"experiment": spec.name, "reps": spec.reps, "seed": spec.seed, **manifest}
    _write_outputs(spec.out_dir, tables, {"manifest.json": manifest})
    return manifest
