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

from ._linalg import Gram
from .deconv import DeconvConfig, IndexEstimate, LinkEstimate, estimate_link
from .errors import ConfigError, PipelineError, SindexError, SplitError
from .inference import InferenceReport, adjust_inferential, check_alpha, marginal_inference
from .models import Dataset, DesignSpec
from .pilot import PilotFit, check_pilot, debias_index, fit_pilot
from .surrogate import CoefFit, fit_coefficients


def check_seed(seed, name: str = "seed") -> None:
    """A ConfigError naming the seed unless it is an integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"{name} must be an integer >= 0, not {seed!r}")


@dataclass(frozen=True)
class SplitConfig:
    """Disjoint split of [n]; no_split reuses every observation twice."""

    fraction: float = 0.5
    no_split: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError("split fraction must lie in (0, 1)")
        check_seed(self.seed, "split seed")


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


def config_section(doc: dict, key: str) -> dict:
    """doc[key] of a config document, {} when absent; a ConfigError when it
    is not an object."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(
            f"config section {key!r} must be an object, not {type(section).__name__}"
        )
    return section


#: The types a config value may take, by the type of its default; any other
#: default is a number, which admits an int or a float but not a bool.
_VALUE_TYPES = {bool: (bool,), int: (int,), str: (str,)}

#: Config entries that may also take one more type: null, or for the sigma
#: of a custom experiment document a list (of rows).
_ALSO_TYPE = {
    "pilot.lambda": type(None),
    "deconv.bandwidth.h": type(None),
    "deconv.bandwidth.c_h": type(None),
    "sigma": list,
}


def _fill(defaults: dict, doc: dict, where: str = "") -> dict:
    """defaults, a config document, with each entry of doc in place of its
    own; a ConfigError names the section and key of an entry that defaults
    lacks or whose value has the wrong type."""
    filled = dict(defaults)
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if key not in defaults:
            section = f"config section {where!r}" if where else "the config"
            raise ConfigError(
                f"unknown key {key!r} in {section}; choose from {sorted(defaults)}"
            )
        default = defaults[key]
        if isinstance(default, dict):
            value = _fill(default, config_section(doc, key), name)
        else:
            types = _VALUE_TYPES.get(type(default), (int, float))
            if name in _ALSO_TYPE:
                types += (_ALSO_TYPE[name],)
            if type(value) not in types:
                allowed = " or ".join(
                    "null" if t is type(None) else t.__name__ for t in types
                )
                raise ConfigError(
                    f"config value {name} must be {allowed}, not {value!r}"
                )
        filled[key] = value
    return filled


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
        check_pilot(self.pilot_kind, self.pilot_lam)
        check_alpha(self.alpha)
        if self.penalty not in ("none", "ridge"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if self.penalty == "none":
            object.__setattr__(self, "penalty_lam", 0.0)
        elif not 0.0 < self.penalty_lam < np.inf:  # negated, so that nan fails
            raise ConfigError(
                f"ridge penalty must be positive and finite: penalty lambda = {self.penalty_lam}"
            )
        if self.inference_mode == "ridge":
            if self.penalty != "ridge":
                raise ConfigError("ridge inference mode needs the ridge penalty")
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
        """The config a document describes; each key it leaves out keeps
        the default."""
        from .deconv import KERNELS, default_grid

        doc = _fill(cls().to_dict(), doc)
        deconv = doc["deconv"]
        grid, bw = deconv["grid"], deconv["bandwidth"]
        if grid["points"] < 2:
            raise ConfigError(f"deconv.grid.points must be >= 2, not {grid['points']}")
        if deconv["kernel"] not in KERNELS:
            raise ConfigError(f"unknown kernel {deconv['kernel']!r}")
        deconv_cfg = DeconvConfig(
            grid=default_grid(grid["a"], grid["b"], grid["points"]),
            kernel=KERNELS[deconv["kernel"]],
            bandwidth_mode=bw["mode"],
            h=bw["h"],
            c_h=bw["c_h"],
            monotonizer=deconv["monotonizer"],
            deriv_floor=deconv["eps"],
        )
        return cls(
            pilot_kind=doc["pilot"]["kind"],
            pilot_lam=doc["pilot"]["lambda"],
            deconv=deconv_cfg,
            penalty=doc["penalty"]["kind"],
            penalty_lam=doc["penalty"]["lambda"],
            inference_mode=doc["inference"]["mode"],
            alpha=doc["inference"]["alpha"],
            split=SplitConfig(**doc["split"]),
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
    no_split = config.split.no_split
    # One half of the split is in memory at a time: the pilot half is copied
    # for the pilot, index and link, and released before the refit half is
    # copied.  Each half has one Gram; under no_split both halves are data
    # itself, and its one Gram serves the pilot as well as the refit.
    x, y = (data.x, data.y) if no_split else (data.x[idx1], data.y[idx1])
    gram = Gram(x)
    with _stage("pilot"):
        pilot = fit_pilot(x, y, config.pilot_kind, config.pilot_lam, gram)
    with _stage("index"):
        index = debias_index(pilot)
    with _stage("link"):
        link = estimate_link(index, y, config.deconv)
    if not no_split:
        del x, y, gram
        x, y = data.x[idx2], data.y[idx2]
        gram = Gram(x)
    # The refit's Gram serves each Newton step, and the inference trace
    # takes over the last Newton step's factor.
    with _stage("coef"):
        coef = fit_coefficients(x, y, link, config.penalty_lam, gram=gram)
    window = config.deconv.window if config.inference_mode == "censored" else None
    with _stage("inference"):
        mu_hat, sigma2_hat = adjust_inferential(
            x, y, coef.beta, link, config.penalty_lam, window, gram
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
