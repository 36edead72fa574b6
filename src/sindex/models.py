"""Domain types, built-in links, and synthetic data generation.

The eight built-in data-generating models pair a monotone link with a
response family (Bernoulli, Poisson, or Gaussian with an optional mean
shift).  Designs are Gaussian with a caller-supplied SPD covariance.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.special import exp1, expit

from ._linalg import cho_factor, cho_inverse_diag
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


def covariance_cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the covariance sigma, after checking that it
    is finite, square, symmetric to 1e-10 and positive definite; raises
    InvalidDesignError otherwise.  Every covariance enters through here."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidDesignError("covariance must be square")
    if not np.all(np.isfinite(sigma)):
        raise InvalidDesignError("covariance contains non-finite entries")
    if np.max(np.abs(sigma - sigma.T)) > 1e-10:
        raise InvalidDesignError("covariance is not symmetric to 1e-10")
    try:
        # C-ordered: sample_design's draw @ chol.T rounds differently
        # on a Fortran-ordered factor.
        return np.ascontiguousarray(cho_factor(sigma.copy(order="F"))[0])
    except LinAlgError as err:
        raise InvalidDesignError("covariance is not positive definite") from err


@dataclass(frozen=True)
class DesignSpec:
    """Gaussian design: the Cholesky factor of its covariance Sigma, and
    the coordinate scales tau_j = (Sigma^{-1})_jj^{-1/2}."""

    p: int
    chol: np.ndarray
    tau: np.ndarray

    @classmethod
    def identity(cls, p: int) -> "DesignSpec":
        if p < 1:
            raise InvalidDesignError("dimension must be >= 1")
        return cls(p=p, chol=np.eye(p), tau=np.ones(p))

    @classmethod
    def from_sigma(cls, sigma: np.ndarray) -> "DesignSpec":
        chol = covariance_cholesky(sigma)
        theta_diag = cho_inverse_diag((chol.copy(), True))
        return cls(p=len(chol), chol=chol, tau=1.0 / np.sqrt(theta_diag))


@dataclass(frozen=True)
class LinkFunction:
    """Monotone working link: evaluate(t) gives (G, g, g') at t, where G is
    a closed-form antiderivative of g for the surrogate loss.  The three
    arrays may alias each other and t, so no caller may write into them."""

    label: str
    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __call__(self, t):
        return self.evaluate(t)[1]


@dataclass(frozen=True)
class SimModel:
    """Data-generating model: link plus response family."""

    name: str
    link: LinkFunction
    response: str  # "bernoulli" | "poisson" | "gaussian"
    noise_sd: float = 0.0
    noise_mean: float = 0.0


def _cloglog(t):
    # Antiderivative of 1 - exp(-exp(t)) is t + E1(exp(t)); outside
    # [-30, 700], where exp1 under- or overflows, G takes its limits
    # -EULER_GAMMA and t.
    t = np.asarray(t, dtype=float)
    e = np.exp(t)
    big_g = np.where(t < -30.0, -_EULER_GAMMA, np.where(t > 700.0, t, t + exp1(e)))
    return big_g, -np.expm1(-e), np.exp(t - e)


def _xsqrt(t):
    t = np.asarray(t, dtype=float)
    root = np.hypot(t, 1.0)
    big_g = 0.5 * t * t + 0.5 * (t * root + np.arcsinh(t))
    return big_g, t + root, 1.0 + t / root


def _cubic(t):
    t = np.asarray(t, dtype=float)
    return t ** 4 / 12.0, t ** 3 / 3.0, t ** 2


def _piecewise(t):
    t = np.asarray(t, dtype=float)
    lower, upper = t <= -1.0, t >= 1.0
    side = 1.25 + 0.1 * (t * t - 1.0)
    big_g = np.where(
        lower, side - 2.3 * (t + 1.0), np.where(upper, side + 2.3 * (t - 1.0), 1.25 * t * t)
    )
    g = np.where(lower, 0.2 * t - 2.3, np.where(upper, 0.2 * t + 2.3, 2.5 * t))
    return big_g, g, np.where(np.abs(t) < 1.0, 2.5, 0.2)


def _logistic(t):
    t = np.asarray(t, dtype=float)
    e = expit(t)
    return np.logaddexp(0.0, t), e, e * (1.0 - e)


def _exp(t):
    e = np.exp(t)
    return e, e, e


def _identity(t):
    t = np.asarray(t, dtype=float)
    return 0.5 * t * t, t, np.ones_like(t)


CLOGLOG_LINK = LinkFunction("cloglog", _cloglog)
XSQRT_LINK = LinkFunction("xsqrt", _xsqrt)
CUBIC_LINK = LinkFunction("cubic", _cubic)
PIECEWISE_LINK = LinkFunction("piecewise", _piecewise)
LOGISTIC_LINK = LinkFunction("logistic", _logistic)
EXP_LINK = LinkFunction("exp", _exp)
IDENTITY_LINK = LinkFunction("identity", _identity)


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
        "piecewise+", PIECEWISE_LINK, "gaussian", noise_sd=np.sqrt(0.2), noise_mean=5.0
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
    # Identity test without a p x p temporary: the flattened factor has its
    # diagonal at every (p + 1)-th entry, and the p entries between two
    # diagonal ones are the first p columns of flat[1:] read as
    # (p - 1) x (p + 1).
    p = spec.p
    flat = spec.chol.reshape(-1)
    identity = np.all(flat[:: p + 1] == 1.0) and not np.any(
        flat[1:].reshape(p - 1, p + 1)[:, :p]
    )
    return draw if identity else draw @ spec.chol.T


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
