"""Monte Carlo experiment harness emitting plot-ready CSV files.

Four named experiments at desk scale:

  figure1  pooled index z-scores per model (normality of the debiased index)
  figure2  mean squared link loss on [-3, 3] against the sample size
  figure3  pooled t-statistics and CI coverage under the ridge penalty
  table1   effective-variance comparison of pilots against the refit

Every replication derives its seeds from one SeedSequence counter, so
results are reproducible and independent of worker scheduling.
"""

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np
from scipy.stats import kstest

from .debias import debias_index, index_zscores
from .deconv import KERNELS, DeconvConfig, estimate_link
from .errors import ConfigError, KernelOverflowError, PipelineError
from .inference import effective_variance_oracle
from .models import (
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from .pilot import MLE_FAMILY, fit_pilot, glm_mle_fit, least_squares_fit
from .pipeline import PipelineConfig, SplitConfig, run_pipeline

EXPERIMENTS = ("figure1", "figure2", "figure3", "table1", "custom")

#: Pilot assignment per data-generating model.
PILOT_FOR_MODEL = {
    "cloglog": "logit-mle",
    "xsqrt": "pois-mle",
    "cubic": "ls",
    "piecewise": "ls",
    "logit": "logit-mle",
    "poisson": "pois-mle",
    "cubic+": "ls",
    "piecewise+": "ls",
}


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
        if self.name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENTS}"
            )
        if self.reps is not None and self.reps < 1:
            raise ConfigError("replications must be >= 1")


def _rep_seeds(seed: int, reps: int) -> List[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(reps)


def _map_reps(fn, args_list, jobs: int):
    if jobs <= 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*args_list)))


def _with_split_seed(config: PipelineConfig, seedseq) -> PipelineConfig:
    """config with its split seed drawn from seedseq."""
    seed = int(seedseq.generate_state(1)[0])
    return replace(config, split=replace(config.split, seed=seed))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value))


def _write_manifest(out_dir, manifest) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _simulate(model_name, n, p, scheme, seedseq, design=None):
    """One synthetic dataset with rows drawn from N_p(0, Sigma) of `design`
    (identity when omitted); returns (X, y, beta, design)."""
    design = DesignSpec.identity(p) if design is None else design
    s_beta, s_x, s_y = seedseq.spawn(3)
    beta = sample_coefficients(p, scheme, design, s_beta)
    x = sample_design(n, design, s_x)
    y = generate_responses(x, beta, model_lookup(model_name), s_y)
    return x, y, beta, design


# ---------------------------------------------------------------------------
# figure1: index normality
# ---------------------------------------------------------------------------

#: (n, p) per model; every other model uses FIGURE1_DEFAULT_SHAPE.
FIGURE1_SHAPES = {"cloglog": (500, 50)}
FIGURE1_DEFAULT_SHAPE = (500, 200)


def _figure1_rep(model_name, n, p, pilot_kind, seedseq) -> float:
    x, y, beta, _ = _simulate(model_name, n, p, "uniform-sphere", seedseq)
    pilot = fit_pilot(x, y, pilot_kind)
    est = debias_index(x, y, pilot)
    return float(index_zscores(est, x, beta, pilot)[0])


def figure1(
    out_dir: str,
    models: Optional[Sequence[str]] = None,
    reps: int = 200,
    seed: int = 20240,
    jobs: int = 1,
) -> dict:
    """Pooled first-coordinate z-scores of the index estimator per model."""
    os.makedirs(out_dir, exist_ok=True)
    models = list(models or ("cloglog", "xsqrt", "cubic", "piecewise"))
    rows = []
    summary = {}
    for model_name in models:
        n, p = FIGURE1_SHAPES.get(model_name, FIGURE1_DEFAULT_SHAPE)
        pilot_kind = PILOT_FOR_MODEL[model_name]
        seeds = _rep_seeds(seed, reps)
        args = [(model_name, n, p, pilot_kind, s) for s in seeds]
        zs = _map_reps(_figure1_rep, args, jobs)
        rows.extend(
            (model_name, rep, _fmt(z)) for rep, z in enumerate(zs)
        )
        zs = np.asarray(zs)
        summary[model_name] = {
            "n": n,
            "p": p,
            "pilot": pilot_kind,
            "ks_distance": float(kstest(zs, "norm").statistic),
            "mean": float(np.mean(zs)),
            "variance": float(np.var(zs)),
        }
    _write_csv(os.path.join(out_dir, "figure1_zscores.csv"), ["model", "rep", "z"], rows)
    manifest = {
        "experiment": "figure1",
        "reps": reps,
        "seed": seed,
        "models": models,
        "split": "none (index step uses every observation)",
        "summary": summary,
    }
    _write_manifest(out_dir, manifest)
    return manifest


# ---------------------------------------------------------------------------
# figure2: link consistency
# ---------------------------------------------------------------------------


#: Aspect ratio p / n of every figure2 sample size.
FIGURE2_RATIO = 0.6


def _figure2_rep(model_name, n, p, pilot_kind, seedseq) -> float:
    x, y, beta, _ = _simulate(model_name, n, p, "uniform-sphere", seedseq)
    pilot = fit_pilot(x, y, pilot_kind)
    est = debias_index(x, y, pilot)
    link = estimate_link(est, y, DeconvConfig())
    truth = model_lookup(model_name).link(link.grid)
    return float(np.mean((link.values - truth) ** 2))


def figure2(
    out_dir: str,
    model: str = "piecewise",
    ns: Sequence[int] = (64, 128, 256, 512),
    reps: int = 50,
    seed: int = 20240,
    jobs: int = 1,
) -> dict:
    """Mean squared loss of the link estimate on [-3, 3] against n."""
    os.makedirs(out_dir, exist_ok=True)
    pilot_kind = PILOT_FOR_MODEL[model]
    rows = []
    mean_losses = {}
    for n in ns:
        p = max(1, int(round(FIGURE2_RATIO * n)))
        seeds = _rep_seeds(seed + n, reps)
        args = [(model, n, p, pilot_kind, s) for s in seeds]
        losses = _map_reps(_figure2_rep, args, jobs)
        rows.extend((n, rep, _fmt(v)) for rep, v in enumerate(losses))
        mean_losses[int(n)] = float(np.mean(losses))
    _write_csv(
        os.path.join(out_dir, "figure2_losses.csv"), ["n", "rep", "sq_loss"], rows
    )
    _write_csv(
        os.path.join(out_dir, "figure2_mean_loss.csv"),
        ["n", "mean_sq_loss"],
        [(n, _fmt(v)) for n, v in mean_losses.items()],
    )
    manifest = {
        "experiment": "figure2",
        "model": model,
        "ratio": FIGURE2_RATIO,
        "ns": [int(n) for n in ns],
        "reps": reps,
        "seed": seed,
        "pilot": pilot_kind,
        "split": "none (link step uses every observation)",
        "summary": {"mean_loss": mean_losses},
    }
    _write_manifest(out_dir, manifest)
    return manifest


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
    s_data, s_split = seedseq.spawn(2)
    x, y, beta, design = _simulate(model_name, n, p, scheme, s_data)
    config = _with_split_seed(config, s_split)
    try:
        report = run_pipeline(Dataset(x, y), config, design=design)
    except PipelineError as err:
        if not isinstance(err.cause, KernelOverflowError):
            raise
        # A degenerate pilot (mu ~ 0) can blow up the index noise scale past
        # what the fixed bandwidth tolerates; the theory bandwidth scales
        # with the noise and keeps the kernel exponent bounded.
        fallback = replace(config.deconv, bandwidth_mode="theory", h=None, c_h=None)
        report = run_pipeline(
            Dataset(x, y), replace(config, deconv=fallback), design=design
        )
        fallback_used = True
    else:
        fallback_used = False
    inf = report.inference
    t1 = float(
        np.sqrt(p) * (report.coef.beta[0] - inf.mu_hat * beta[0]) / np.sqrt(inf.sigma2_hat)
    )
    covered = bool(inf.ci_lo[0] <= beta[0] <= inf.ci_hi[0])
    return t1, covered, fallback_used


def figure3(
    out_dir: str,
    model: str = "cloglog",
    reps: int = 300,
    seed: int = 20240,
    jobs: int = 1,
) -> dict:
    """Pooled T_1 statistics and empirical CI coverage (ridge mode), at
    FIGURE3_SHAPE with FIGURE3_CONFIG."""
    os.makedirs(out_dir, exist_ok=True)
    n, p = FIGURE3_SHAPE
    config = FIGURE3_CONFIG
    scheme = "uniform-sphere"
    seeds = _rep_seeds(seed, reps)
    args = [(model, n, p, config, scheme, s) for s in seeds]
    results = _map_reps(_figure3_rep, args, jobs)
    t_stats = np.array([r[0] for r in results])
    covered = np.array([r[1] for r in results])
    fallbacks = int(sum(r[2] for r in results))
    _write_csv(
        os.path.join(out_dir, "figure3_tstats.csv"),
        ["rep", "T1", "covered"],
        [(rep, _fmt(t), int(c)) for rep, (t, c, _) in enumerate(results)],
    )
    manifest = {
        "experiment": "figure3",
        "model": model,
        "n": n,
        "p": p,
        "reps": reps,
        "seed": seed,
        "alpha": config.alpha,
        "pilot": {"kind": "ridge", "lambda": config.pilot_lam},
        "penalty": {"kind": "ridge", "lambda": config.penalty_lam},
        "bandwidth": {"mode": "fixed", "h": config.deconv.h},
        "beta_scheme": scheme,
        "split": "none (every observation reused in both stages)",
        "summary": {
            "coverage": float(np.mean(covered)),
            "ks_distance": float(kstest(t_stats, "norm").statistic),
            "t_mean": float(np.mean(t_stats)),
            "t_variance": float(np.var(t_stats)),
            "bandwidth_fallbacks": fallbacks,
        },
    }
    _write_manifest(out_dir, manifest)
    return manifest


# ---------------------------------------------------------------------------
# table1: effective-variance comparison
# ---------------------------------------------------------------------------

#: Competitor estimators reported next to the refit for each model.
TABLE1_COMPETITORS = {
    "logit": ("ls", "logit-mle"),
    "cloglog": ("ls", "logit-mle"),
    "poisson": ("ls", "pois-mle"),
    "xsqrt": ("ls", "pois-mle"),
    "cubic": ("ls",),
    "cubic+": ("ls",),
    "piecewise": ("ls",),
    "piecewise+": ("ls",),
}


def _table1_rep(model_name, n, p, estimators, seedseq) -> dict:
    s_data, s_split = seedseq.spawn(2)
    x, y, beta, _ = _simulate(model_name, n, p, "uniform-sphere", s_data)
    out = {}
    for kind in estimators:
        if kind == "ls":
            est = least_squares_fit(x, y)
        else:
            est = glm_mle_fit(x, y, MLE_FAMILY[kind])
        out[kind] = effective_variance_oracle(est, beta)
    config = PipelineConfig(
        pilot_kind=PILOT_FOR_MODEL[model_name],
        pilot_lam=None,
        # Flat-top kernel: the efficiency statistic is scale sensitive, so
        # the link estimate must carry no smoothing attenuation.
        deconv=DeconvConfig(kernel=KERNELS["flattop"]),
        penalty="none",
        penalty_lam=0.0,
        inference_mode="unregularized",
        split=SplitConfig(no_split=True),
    )
    report = run_pipeline(Dataset(x, y), config)
    out["proposed"] = effective_variance_oracle(report.coef.beta, beta)
    return out


#: (n, p) of table1; the reference does not state them.
TABLE1_SHAPE = (2000, 50)


def table1(
    out_dir: str,
    models: Optional[Sequence[str]] = None,
    reps: int = 100,
    seed: int = 20240,
    jobs: int = 1,
) -> dict:
    """Mean and sd of the effective-variance statistic per (model, estimator)."""
    os.makedirs(out_dir, exist_ok=True)
    n, p = TABLE1_SHAPE
    models = list(models or TABLE1_COMPETITORS)
    rows = []
    summary = {}
    for model_name in models:
        estimators = TABLE1_COMPETITORS[model_name]
        seeds = _rep_seeds(seed, reps)
        args = [(model_name, n, p, estimators, s) for s in seeds]
        results = _map_reps(_table1_rep, args, jobs)
        summary[model_name] = {}
        for kind in list(estimators) + ["proposed"]:
            values = np.array([r[kind] for r in results])
            rows.append((model_name, kind, _fmt(values.mean()), _fmt(values.std())))
            summary[model_name][kind] = {
                "mean": float(values.mean()),
                "sd": float(values.std()),
            }
    _write_csv(
        os.path.join(out_dir, "table1_efficiency.csv"),
        ["model", "estimator", "mean", "sd"],
        rows,
    )
    manifest = {
        "experiment": "table1",
        "models": models,
        "n": n,
        "p": p,
        "reps": reps,
        "seed": seed,
        "split": "none (every observation reused in both stages)",
        "note": "paper does not state (n, p) for this table; desk-scale values used",
        "summary": summary,
    }
    _write_manifest(out_dir, manifest)
    return manifest


def run_experiment(spec: ExperimentSpec) -> dict:
    """Dispatch a named experiment with desk- or paper-scale replications."""
    if spec.name == "figure1":
        reps = spec.reps or (1000 if spec.paper_scale else 200)
        return figure1(
            spec.out_dir, models=spec.models, reps=reps, seed=spec.seed, jobs=spec.jobs
        )
    if spec.name == "figure2":
        reps = spec.reps or (1000 if spec.paper_scale else 50)
        ns = (32, 64, 128, 256, 512, 1024) if spec.paper_scale else (64, 128, 256, 512)
        model = spec.models[0] if spec.models else "piecewise"
        return figure2(
            spec.out_dir, model=model, ns=ns, reps=reps, seed=spec.seed, jobs=spec.jobs
        )
    if spec.name == "figure3":
        reps = spec.reps or (1000 if spec.paper_scale else 300)
        model = spec.models[0] if spec.models else "cloglog"
        return figure3(spec.out_dir, model=model, reps=reps, seed=spec.seed, jobs=spec.jobs)
    if spec.name == "table1":
        reps = spec.reps or 100
        return table1(
            spec.out_dir, models=spec.models, reps=reps, seed=spec.seed, jobs=spec.jobs
        )
    if spec.name == "custom":
        if spec.custom_config is None:
            raise ConfigError("custom experiments need a config document")
        return _custom_experiment(spec)
    raise ConfigError(f"unknown experiment {spec.name!r}")


def _custom_rep(model_name, n, p, scheme, design, config, seedseq) -> tuple:
    s_data, s_split = seedseq.spawn(2)
    x, y, beta, _ = _simulate(model_name, n, p, scheme, s_data, design)
    rep_config = _with_split_seed(config, s_split)
    report = run_pipeline(Dataset(x, y), rep_config, design=design)
    ev = effective_variance_oracle(report.coef.beta, beta)
    return report.inference.mu_hat, report.inference.sigma2_hat, ev


def _custom_experiment(spec: ExperimentSpec) -> dict:
    """Replicated pipeline runs from a JSON config document."""
    doc = dict(spec.custom_config)
    model_name = doc.pop("model", None)
    n = doc.pop("n", None)
    p = doc.pop("p", None)
    sigma = doc.pop("sigma", "identity")
    scheme = doc.pop("beta_scheme", "uniform-sphere")
    if model_name is None or n is None or p is None:
        raise ConfigError("custom experiments need model, n, and p")
    if sigma == "identity":
        design = DesignSpec.identity(p)
    else:
        design = DesignSpec.from_sigma(np.asarray(sigma, dtype=float))
    config = PipelineConfig.from_dict(doc)
    reps = spec.reps or 100
    os.makedirs(spec.out_dir, exist_ok=True)
    seeds = _rep_seeds(spec.seed, reps)
    args = [(model_name, n, p, scheme, design, config, s) for s in seeds]
    results = _map_reps(_custom_rep, args, spec.jobs)
    eff_vars = [ev for _, _, ev in results]
    _write_csv(
        os.path.join(spec.out_dir, "custom_replications.csv"),
        ["rep", "mu_hat", "sigma2_hat", "effective_variance"],
        [(rep, *map(_fmt, r)) for rep, r in enumerate(results)],
    )
    manifest = {
        "experiment": "custom",
        "model": model_name,
        "n": n,
        "p": p,
        "reps": reps,
        "seed": spec.seed,
        "config": config.to_dict(),
        "summary": {
            "effective_variance_mean": float(np.mean(eff_vars)),
            "effective_variance_sd": float(np.std(eff_vars)),
        },
    }
    _write_manifest(spec.out_dir, manifest)
    return manifest
