"""Domain types, built-in links, and synthetic data generation.

The eight built-in data-generating models pair a monotone link with a
response family (Bernoulli, Poisson, or Gaussian with an optional mean
shift).  Designs are Gaussian with a caller-supplied SPD covariance.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exp1, expit

from ._linalg import cho_inverse
from .errors import ConfigError, GenerationError, InvalidDesignError

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class Dataset:
    """Design matrix (rows = observations) and response vector."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ConfigError("design matrix must be n x p with n, p >= 1")
        if y.shape != (x.shape[0],):
            raise ConfigError("response length must match the number of rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ConfigError("dataset contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class DesignSpec:
    """Gaussian design: covariance, its Cholesky factor, and the
    coordinate scales tau_j = (Sigma^{-1})_jj^{-1/2}."""

    p: int
    sigma: np.ndarray
    chol: np.ndarray
    tau: np.ndarray

    @classmethod
    def identity(cls, p: int) -> "DesignSpec":
        if p < 1:
            raise InvalidDesignError("dimension must be >= 1")
        eye = np.eye(p)
        return cls(p=p, sigma=eye, chol=eye, tau=np.ones(p))

    @classmethod
    def from_sigma(cls, sigma: np.ndarray) -> "DesignSpec":
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise InvalidDesignError("covariance must be square")
        if not np.all(np.isfinite(sigma)):
            raise InvalidDesignError("covariance contains non-finite entries")
        if np.max(np.abs(sigma - sigma.T)) > 1e-10:
            raise InvalidDesignError("covariance is not symmetric to 1e-10")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as err:
            raise InvalidDesignError(
                "covariance is not positive definite"
            ) from err
        theta_diag = np.diag(cho_inverse((chol.copy(), True)))
        return cls(
            p=sigma.shape[0],
            sigma=sigma,
            chol=chol,
            tau=1.0 / np.sqrt(theta_diag),
        )


@dataclass(frozen=True)
class LinkFunction:
    """Monotone link: the map itself, its derivative, and a closed-form
    antiderivative for use in the surrogate loss."""

    label: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    antideriv: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.value(t)

    def evaluate(self, t):
        """Antiderivative, value and derivative at t: (G, g, g')."""
        return self.antideriv(t), self.value(t), self.deriv(t)


@dataclass(frozen=True)
class SimModel:
    """Data-generating model: link plus response family."""

    name: str
    link: LinkFunction
    response: str  # "bernoulli" | "poisson" | "gaussian"
    noise_sd: float = 0.0
    noise_mean: float = 0.0


def _cloglog(t):
    return -np.expm1(-np.exp(np.asarray(t, dtype=float)))


def _cloglog_deriv(t):
    t = np.asarray(t, dtype=float)
    return np.exp(t - np.exp(t))


def _cloglog_antideriv(t):
    # Antiderivative of 1 - exp(-exp(t)) is t + E1(exp(t)); the branch keeps
    # exp1 away from under/overflow (limits -EULER_GAMMA and t).
    t = np.asarray(t, dtype=float)
    clipped = np.clip(t, -30.0, 700.0)
    out = clipped + exp1(np.exp(clipped))
    return np.where(t < -30.0, -_EULER_GAMMA, np.where(t > 700.0, t, out))


def _xsqrt(t):
    t = np.asarray(t, dtype=float)
    return t + np.hypot(t, 1.0)


def _xsqrt_deriv(t):
    t = np.asarray(t, dtype=float)
    return 1.0 + t / np.hypot(t, 1.0)


def _xsqrt_antideriv(t):
    t = np.asarray(t, dtype=float)
    root = np.hypot(t, 1.0)
    return 0.5 * t * t + 0.5 * (t * root + np.arcsinh(t))


def _cubic(t):
    t = np.asarray(t, dtype=float)
    return t ** 3 / 3.0


def _cubic_deriv(t):
    t = np.asarray(t, dtype=float)
    return t ** 2


def _cubic_antideriv(t):
    t = np.asarray(t, dtype=float)
    return t ** 4 / 12.0


def _piecewise(t):
    t = np.asarray(t, dtype=float)
    return np.where(
        t <= -1.0,
        0.2 * t - 2.3,
        np.where(t >= 1.0, 0.2 * t + 2.3, 2.5 * t),
    )


def _piecewise_deriv(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, 2.5, 0.2)


def _piecewise_antideriv(t):
    t = np.asarray(t, dtype=float)
    inner = 1.25 * t * t
    upper = 1.25 + 0.1 * (t * t - 1.0) + 2.3 * (t - 1.0)
    lower = 1.25 + 0.1 * (t * t - 1.0) - 2.3 * (t + 1.0)
    return np.where(t <= -1.0, lower, np.where(t >= 1.0, upper, inner))


def _logistic_deriv(t):
    e = expit(np.asarray(t, dtype=float))
    return e * (1.0 - e)


def _softplus(t):
    return np.logaddexp(0.0, np.asarray(t, dtype=float))


def _identity(t):
    return np.asarray(t, dtype=float)


def _ones_like(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _half_square(t):
    t = np.asarray(t, dtype=float)
    return 0.5 * t * t


CLOGLOG_LINK = LinkFunction("cloglog", _cloglog, _cloglog_deriv, _cloglog_antideriv)
XSQRT_LINK = LinkFunction("xsqrt", _xsqrt, _xsqrt_deriv, _xsqrt_antideriv)
CUBIC_LINK = LinkFunction("cubic", _cubic, _cubic_deriv, _cubic_antideriv)
PIECEWISE_LINK = LinkFunction(
    "piecewise", _piecewise, _piecewise_deriv, _piecewise_antideriv
)
LOGISTIC_LINK = LinkFunction("logistic", expit, _logistic_deriv, _softplus)
EXP_LINK = LinkFunction("exp", np.exp, np.exp, np.exp)
IDENTITY_LINK = LinkFunction("identity", _identity, _ones_like, _half_square)


MODELS = {
    "cloglog": SimModel("cloglog", CLOGLOG_LINK, "bernoulli"),
    "xsqrt": SimModel("xsqrt", XSQRT_LINK, "poisson"),
    "cubic": SimModel("cubic", CUBIC_LINK, "gaussian", noise_sd=np.sqrt(0.5)),
    "piecewise": SimModel(
        "piecewise", PIECEWISE_LINK, "gaussian", noise_sd=np.sqrt(0.2)
    ),
    "logit": SimModel("logit", LOGISTIC_LINK, "bernoulli"),
    "poisson": SimModel("poisson", EXP_LINK, "poisson"),
    "cubic+": SimModel(
        "cubic+", CUBIC_LINK, "gaussian", noise_sd=np.sqrt(0.5), noise_mean=5.0
    ),
    "piecewise+": SimModel(
        "piecewise+",
        PIECEWISE_LINK,
        "gaussian",
        noise_sd=np.sqrt(0.2),
        noise_mean=5.0,
    ),
}


def model_lookup(variant: str) -> SimModel:
    """Return the built-in model for one of the eight variant names."""
    try:
        return MODELS[variant]
    except KeyError:
        raise ConfigError(
            f"unknown model variant {variant!r}; choose from {sorted(MODELS)}"
        ) from None


def sample_design(n: int, spec: DesignSpec, seed) -> np.ndarray:
    """Draw n i.i.d. rows from N_p(0, Sigma) through the Cholesky factor."""
    if n < 1:
        raise ConfigError("need at least one row")
    draw = np.random.default_rng(seed).standard_normal((n, spec.p))
    return draw if np.array_equal(spec.chol, np.eye(spec.p)) else draw @ spec.chol.T


def sample_coefficients(p: int, scheme: str, spec: DesignSpec, seed) -> np.ndarray:
    """Draw a coefficient vector normalized so that beta' Sigma beta = 1.

    Schemes: "uniform-sphere" (Gaussian direction) or "sparse(k)" (first k
    coordinates equal, the rest zero, before normalization).
    """
    if spec.p != p:
        raise ConfigError("dimension does not match the design spec")
    if scheme == "uniform-sphere":
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(p)
    elif scheme.startswith("sparse(") and scheme.endswith(")"):
        try:
            k = int(scheme[len("sparse(") : -1])
        except ValueError:
            raise ConfigError(f"bad sparse scheme {scheme!r}") from None
        if k < 1 or k > p:
            raise ConfigError(f"sparse support size {k} must be in [1, {p}]")
        raw = np.zeros(p)
        raw[:k] = 1.0
    else:
        raise ConfigError(f"unknown coefficient scheme {scheme!r}")
    scale = np.linalg.norm(spec.chol.T @ raw)
    return raw / scale


def generate_responses(
    x: np.ndarray, beta: np.ndarray, model: SimModel, seed
) -> np.ndarray:
    """Draw responses from the model at index values X beta."""
    rng = np.random.default_rng(seed)
    index = x @ beta
    with np.errstate(over="ignore"):
        mean = model.link(index)
    if model.response == "bernoulli":
        return rng.binomial(1, np.clip(mean, 0.0, 1.0)).astype(float)
    if model.response == "poisson":
        if not np.all(np.isfinite(mean)):
            raise GenerationError("Poisson mean is non-finite")
        return rng.poisson(mean).astype(float)
    if model.response == "gaussian":
        noise = model.noise_mean + model.noise_sd * rng.standard_normal(len(index))
        return mean + noise
    raise ConfigError(f"unknown response family {model.response!r}")
