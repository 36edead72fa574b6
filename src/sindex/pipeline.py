"""Data splitting and end-to-end orchestration.

A run chains pilot fit, debiased index, deconvolution link estimate,
surrogate coefficient fit, and inferential-parameter estimation, with the
first data part feeding the link and the second part feeding the fit.
"""

import contextlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .debias import IndexEstimate, debias_index
from .deconv import DeconvConfig, LinkEstimate, estimate_link
from .errors import ConfigError, PipelineError, SindexError, SplitError
from .inference import (
    CensoredAdjustment,
    InferenceReport,
    adjust_inferential,
    marginal_inference,
)
from .models import Dataset, DesignSpec
from .pilot import PilotFit, fit_pilot
from .surrogate import CoefFit, fit_coefficients


@dataclass(frozen=True)
class SplitConfig:
    """Disjoint split of [n]; no_split reuses every observation twice."""

    fraction: float = 0.5
    no_split: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError("split fraction must lie in (0, 1)")


def split_data(n: int, cfg: SplitConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded random partition of range(n) at the configured fraction."""
    if cfg.no_split:
        idx = np.arange(n)
        return idx, idx.copy()
    if n < 2:
        raise SplitError("need n >= 2 to split")
    n1 = int(round(n * cfg.fraction))
    if n1 < 1 or n1 >= n:
        raise SplitError(f"split fraction {cfg.fraction} leaves an empty part")
    perm = np.random.default_rng(cfg.seed).permutation(n)
    return np.sort(perm[:n1]), np.sort(perm[n1:])


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline choices; JSON-mappable via from_dict / to_dict."""

    pilot_kind: str = "ridge"
    pilot_lam: Optional[float] = 1.0
    deconv: DeconvConfig = field(default_factory=DeconvConfig)
    penalty: str = "ridge"
    penalty_lam: float = 0.1
    inference_mode: str = "ridge"
    alpha: float = 0.05
    split: SplitConfig = field(default_factory=SplitConfig)

    def __post_init__(self):
        if self.penalty not in ("none", "ridge"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.penalty == "none":
            object.__setattr__(self, "penalty_lam", 0.0)
        if self.inference_mode == "ridge":
            if self.penalty != "ridge" or self.penalty_lam <= 0:
                raise ConfigError(
                    "ridge inference mode needs the ridge penalty with lambda > 0"
                )
        elif self.inference_mode in ("unregularized", "censored"):
            if self.penalty != "none":
                raise ConfigError(
                    f"{self.inference_mode} inference mode needs penalty 'none'"
                )
        else:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")

    def to_dict(self) -> dict:
        grid = self.deconv.grid
        return {
            "pilot": {"kind": self.pilot_kind, "lambda": self.pilot_lam},
            "deconv": {
                "kernel": self.deconv.kernel.label,
                "grid": {
                    "a": float(grid[0]),
                    "b": float(grid[-1]),
                    "points": int(len(grid)),
                },
                "bandwidth": {
                    "mode": self.deconv.bandwidth_mode,
                    "h": self.deconv.h,
                    "c_h": self.deconv.c_h,
                },
                "monotonizer": self.deconv.monotonizer,
                "eps": self.deconv.deriv_floor,
            },
            "penalty": {"kind": self.penalty, "lambda": self.penalty_lam},
            "inference": {"mode": self.inference_mode, "alpha": self.alpha},
            "split": {
                "fraction": self.split.fraction,
                "no_split": self.split.no_split,
                "seed": self.split.seed,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        from .deconv import KERNELS, default_grid

        known = {"pilot", "deconv", "penalty", "inference", "split"}
        extra = set(doc) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        pilot = doc.get("pilot", {})
        deconv = doc.get("deconv", {})
        penalty = doc.get("penalty", {})
        inference = doc.get("inference", {})
        split = doc.get("split", {})
        grid_doc = deconv.get("grid", {})
        grid = default_grid(
            grid_doc.get("a", -3.0),
            grid_doc.get("b", 3.0),
            grid_doc.get("points", 301),
        )
        bw = deconv.get("bandwidth", {})
        kernel_name = deconv.get("kernel", "triweight")
        if kernel_name not in KERNELS:
            raise ConfigError(f"unknown kernel {kernel_name!r}")
        deconv_cfg = DeconvConfig(
            grid=grid,
            kernel=KERNELS[kernel_name],
            bandwidth_mode=bw.get("mode", "theory"),
            h=bw.get("h"),
            c_h=bw.get("c_h"),
            monotonizer=deconv.get("monotonizer", "rearrange"),
            deriv_floor=deconv.get("eps", 1e-3),
        )
        return cls(
            pilot_kind=pilot.get("kind", "ridge"),
            pilot_lam=pilot.get("lambda", 1.0),
            deconv=deconv_cfg,
            penalty=penalty.get("kind", "ridge"),
            penalty_lam=penalty.get("lambda", 0.1),
            inference_mode=inference.get("mode", "ridge"),
            alpha=inference.get("alpha", 0.05),
            split=SplitConfig(
                fraction=split.get("fraction", 0.5),
                no_split=split.get("no_split", False),
                seed=split.get("seed", 0),
            ),
        )


@dataclass(frozen=True)
class PipelineReport:
    pilot: PilotFit
    index: IndexEstimate
    link: LinkEstimate
    coef: CoefFit
    inference: InferenceReport
    kappa1: float
    kappa2: float
    n1: int
    n2: int
    p: int
    config: dict

    def to_dict(self) -> dict:
        adj = self.pilot.adjustments
        return {
            "config": self.config,
            "n1": self.n1,
            "n2": self.n2,
            "p": self.p,
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "pilot": {
                "kind": self.pilot.kind,
                "lambda": self.pilot.lam,
                "beta": self.pilot.beta.tolist(),
                "adjustments": {
                    "v": adj.v,
                    "gamma": adj.gamma,
                    "mu": adj.mu,
                    "sigma2": adj.sigma2,
                    "kappa": adj.kappa,
                },
            },
            "index": {
                "varsigma2": self.index.varsigma2,
                "w": self.index.w.tolist(),
            },
            "link": {
                "h": self.link.h,
                "window": list(self.link.window),
                "grid": self.link.grid.tolist(),
                "values": self.link.values.tolist(),
                "deriv": self.link.deriv.tolist(),
            },
            "coef": {
                "beta": self.coef.beta.tolist(),
                "penalty": "ridge" if self.coef.lam > 0 else "none",
                "lambda": self.coef.lam,
                "iterations": self.coef.iterations,
                "grad_norm": self.coef.grad_norm,
                "converged": self.coef.converged,
            },
            "inference": self.inference.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except SindexError as err:
        raise PipelineError(name, err) from err


def run_pipeline(
    data: Dataset,
    config: PipelineConfig,
    design: Optional[DesignSpec] = None,
) -> PipelineReport:
    """Run the four estimation steps on a dataset.

    The design spec supplies the coordinate scales tau_j when the covariance
    is known (simulation); otherwise tau_j = 1 is used.
    """
    n, p = data.n, data.p
    with _stage("split"):
        idx1, idx2 = split_data(n, config.split)
    x1, y1 = data.x[idx1], data.y[idx1]
    x2, y2 = data.x[idx2], data.y[idx2]
    with _stage("pilot"):
        pilot = fit_pilot(x1, y1, config.pilot_kind, config.pilot_lam)
    with _stage("index"):
        index = debias_index(x1, y1, pilot)
    with _stage("link"):
        link = estimate_link(index, y1, config.deconv)
    with _stage("coef"):
        coef = fit_coefficients(x2, y2, link, config.penalty_lam)
    censor = None
    if config.inference_mode == "censored":
        censor = CensoredAdjustment(*config.deconv.window)
    with _stage("inference"):
        mu_hat, sigma2_hat = adjust_inferential(
            x2,
            y2,
            coef.beta,
            link,
            mode=config.inference_mode,
            lam=config.penalty_lam,
            censor=censor,
        )
        tau = design.tau if design is not None else np.ones(p)
        report = marginal_inference(
            coef.beta,
            mu_hat,
            sigma2_hat,
            tau,
            alpha=config.alpha,
            mode=config.inference_mode,
        )
    return PipelineReport(
        pilot=pilot,
        index=index,
        link=link,
        coef=coef,
        inference=report,
        kappa1=p / len(idx1),
        kappa2=p / len(idx2),
        n1=len(idx1),
        n2=len(idx2),
        p=p,
        config=config.to_dict(),
    )
