"""Inferential-parameter estimation, t-statistics, intervals, and oracles.

The refit's inferential parameters (mu, sigma^2) are the observable
adjustments that also calibrate the pilot (pilot.observable_adjustments),
taken at the refit's ridge level lam and, for a heavy-tailed index, a
working window (lo, hi).  lam > 0 selects the ridge formulas, lam = 0 the
unregularized ones, and a window the censored ones: the unregularized
formulas with the fitted indices clamped to the window.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from ._linalg import adjustment_trace
from .errors import ConfigError, DegenerateError, InvalidDesignError
from .pilot import observable_adjustments
from .surrogate import WorkingLink

@dataclass(frozen=True)
class OracleParams:
    """Simulation-only inferential parameters computed from the true beta."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class InferenceReport:
    mode: str
    alpha: float
    mu_hat: float
    sigma2_hat: float
    beta_hat: np.ndarray
    tau: np.ndarray
    t_stats: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    p_values: np.ndarray
    reject: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "alpha": self.alpha,
            "mu_hat": self.mu_hat,
            "sigma2_hat": self.sigma2_hat,
            "beta_hat": self.beta_hat.tolist(),
            "tau": self.tau.tolist(),
            "t_stats": self.t_stats.tolist(),
            "ci_lo": self.ci_lo.tolist(),
            "ci_hi": self.ci_hi.tolist(),
            "p_values": self.p_values.tolist(),
            "reject": self.reject.astype(bool).tolist(),
        }


def adjust_inferential(
    x: np.ndarray,
    y: np.ndarray,
    beta_hat: np.ndarray,
    link: WorkingLink,
    lam: float = 0.0,
    window: Optional[Tuple[float, float]] = None,
    gram=None,
) -> Tuple[float, float]:
    """Estimate the inferential bias mu and variance sigma^2 of beta_hat.

    They are the observable adjustments (pilot.observable_adjustments) of
    the fit with working link `link` at ridge level lam, with
    v = n^{-1} tr(D - DX(X'DX + n lam I)^{-1}X'D), D = diag(g'(z)), from
    one evaluation of the link at the indices z = X beta_hat.  lam > 0
    uses lam and ||b||^2; lam = 0 uses ||z||^2/n.  A window (lo, hi), which
    needs lam = 0, clamps z to [lo, hi] inside every norm and weight.
    gram, a Gram of x, supplies the trace's Gram matrix; pass the refit's.
    """
    if lam < 0:
        raise ConfigError("lambda must be nonnegative")
    n = x.shape[0]
    z = x @ beta_hat
    if window is not None:
        lo, hi = window
        if not lo < hi:
            raise ConfigError("censoring window needs lo < hi")
        if lam > 0:
            raise ConfigError("a censoring window needs lambda = 0")
        z = np.clip(z, lo, hi)
    _, fitted, weights = link.evaluate(z)
    v = adjustment_trace(x, np.asarray(weights, dtype=float), n * lam, gram) / n
    adj = observable_adjustments(y, beta_hat, z, fitted, v, lam)
    return adj.mu, adj.sigma2


def marginal_inference(
    beta_hat: np.ndarray,
    mu_hat: float,
    sigma2_hat: float,
    tau: np.ndarray,
    alpha: float = 0.05,
    null_values: Optional[np.ndarray] = None,
    mode: str = "unregularized",
) -> InferenceReport:
    """Coordinate-wise t-statistics, confidence intervals, and p-values.

    T_j = sqrt(p) tau_j (beta_j - mu b0_j) / sigma against null values b0;
    CI_j = mu^{-1} [beta_j -+ z sigma / (sqrt(p) tau_j)].
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    beta_hat = np.asarray(beta_hat, dtype=float)
    p = len(beta_hat)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (p,):
        raise ConfigError("tau must have one entry per coordinate")
    if sigma2_hat <= 0:
        raise DegenerateError("sigma2_hat must be positive for inference")
    if mu_hat <= 0:
        raise DegenerateError("mu_hat must be positive for interval construction")
    if null_values is None:
        null_values = np.zeros(p)
    null_values = np.asarray(null_values, dtype=float)
    sigma = np.sqrt(sigma2_hat)
    sp = np.sqrt(p)
    t_stats = sp * tau * (beta_hat - mu_hat * null_values) / sigma
    z = float(ndtri(1.0 - alpha / 2.0))
    half = z * sigma / (sp * tau)
    ci_lo = (beta_hat - half) / mu_hat
    ci_hi = (beta_hat + half) / mu_hat
    p_values = 2.0 * (1.0 - ndtr(np.abs(t_stats)))
    reject = np.abs(t_stats) >= z
    return InferenceReport(
        mode=mode,
        alpha=alpha,
        mu_hat=mu_hat,
        sigma2_hat=sigma2_hat,
        beta_hat=beta_hat,
        tau=tau,
        t_stats=t_stats,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        p_values=p_values,
        reject=reject,
    )


def oracle_params(
    beta_hat: np.ndarray, beta: np.ndarray, sigma: Optional[np.ndarray] = None
) -> OracleParams:
    """True-beta projections in whitened coordinates (simulation oracle).

    With theta = L' beta and theta_hat = L' beta_hat for the Cholesky factor
    L of Sigma: mu = theta'theta_hat / theta'theta and
    sigma = || theta_hat - mu theta ||.
    """
    beta = np.asarray(beta, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    if sigma is None:
        theta, theta_hat = beta, beta_hat
    else:
        sigma = np.asarray(sigma, dtype=float)
        if np.max(np.abs(sigma - sigma.T)) > 1e-10:
            raise InvalidDesignError("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as err:
            raise InvalidDesignError("covariance is not positive definite") from err
        theta = chol.T @ beta
        theta_hat = chol.T @ beta_hat
    denom = float(theta @ theta)
    if denom <= 0:
        raise ConfigError("true beta must have positive Sigma-norm")
    mu = float(theta @ theta_hat) / denom
    return OracleParams(mu=mu, sigma=float(np.linalg.norm(theta_hat - mu * theta)))


def effective_variance_oracle(beta_hat: np.ndarray, beta: np.ndarray) -> float:
    """Efficiency statistic b'b / (b'beta) - 1 for an estimator b."""
    inner = float(beta_hat @ beta)
    if inner == 0:
        raise DegenerateError("beta_hat is orthogonal to beta")
    return float(beta_hat @ beta_hat) / inner - 1.0


def effective_variance_estimated(mu_hat: float, sigma2_hat: float) -> float:
    """Estimated effective asymptotic variance sigma^2 / mu^2."""
    if mu_hat <= 0:
        raise DegenerateError("mu_hat must be positive")
    return sigma2_hat / mu_hat ** 2


def joint_transform(sigma: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """Whitening matrix for a finite coordinate set S.

    Returns M with M Theta_S M' = I (inverse of the Cholesky factor of the
    S-block of the precision matrix), so that
    M sqrt(p) (beta_hat_S - mu beta_S) / sigma is asymptotically standard
    normal.
    """
    sigma = np.asarray(sigma, dtype=float)
    coords = np.asarray(coords)
    if coords.ndim != 1 or coords.dtype.kind not in "iu" or len(coords) == 0:
        raise ConfigError(f"need a nonempty list of integer coordinates, not {coords}")
    p = len(sigma)
    if len(np.unique(coords)) < len(coords) or coords.min() < 0 or coords.max() >= p:
        raise ConfigError(f"coordinates must be distinct and lie in [0, {p}), not {coords}")
    try:
        theta = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as err:
        raise InvalidDesignError("covariance is not invertible") from err
    block = theta[np.ix_(coords, coords)]
    chol = np.linalg.cholesky(block)
    return np.linalg.inv(chol)
