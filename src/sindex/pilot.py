"""Pilot estimators and their observable adjustments.

Four pilots: ridge, least squares, and the logistic / Poisson MLEs.  Each
comes with the data-computable adjustment quantities (v, gamma, mu, sigma^2)
that calibrate the debiased index estimator in the proportional regime.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.special import expit

from ._linalg import adjustment_trace, cho_inverse, weighted_gram
from .errors import (
    ConfigError,
    DegenerateError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
    SolverError,
)

PILOT_KINDS = ("ridge", "ls", "logit-mle", "pois-mle")

_MLE_FAMILY = {"logit-mle": "logistic", "pois-mle": "poisson"}


@dataclass(frozen=True)
class Adjustments:
    """Observable adjustments of a pilot fit (all scalars)."""

    v: float
    gamma: float
    mu: float
    sigma2: float
    kappa: float


@dataclass(frozen=True)
class PilotFit:
    beta: np.ndarray
    kind: str
    lam: Optional[float]
    adjustments: Adjustments


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge estimator (X'X + n lam I)^{-1} X'y via an SPD solve.

    Uses the n-by-n dual system when p > n.
    """
    if lam <= 0:
        raise ConfigError("ridge penalty must be positive")
    beta, _ = _ridge_solve(x, y, lam, want_trace=False)
    return beta


def _ridge_solve(x, y, lam, want_trace=True):
    """Solve the ridge system, optionally returning tr(I - X A^{-1} X') / n
    from the same factorization."""
    n, p = x.shape
    c = n * lam
    dual = p > n
    try:
        fac = cho_factor(weighted_gram(x, ridge=c, dual=dual), overwrite_a=True)
    except LinAlgError as err:
        raise SolverError(f"ridge system could not be factorized: {err}") from err
    beta = x.T @ cho_solve(fac, y) if dual else cho_solve(fac, x.T @ y)
    if not want_trace:
        return beta, None
    tr_inv = np.trace(cho_inverse(fac))
    # tr(I_n - X A^{-1} X') is tr(c G^{-1}) for the dual G = XX' + cI, and
    # n - p + c tr(A^{-1}) for the primal A = X'X + cI.
    v = lam * tr_inv if dual else (n - p + c * tr_inv) / n
    return beta, float(v)


def least_squares_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary least squares; requires n > p and full column rank."""
    n, p = x.shape
    if n <= p:
        raise NonIdentifiableError("least squares needs n > p")
    try:
        return cho_solve(cho_factor(weighted_gram(x), overwrite_a=True), x.T @ y)
    except LinAlgError as err:
        raise NonIdentifiableError(f"design is rank deficient: {err}") from err


def _glm_funcs(family: str):
    if family == "logistic":
        def nll(t, y):
            return float(np.sum(np.logaddexp(0.0, t) - y * t))

        return expit, _logistic_weight, nll
    if family == "poisson":
        def nll(t, y):
            with np.errstate(over="ignore"):
                return float(np.sum(np.exp(t) - y * t))

        return np.exp, np.exp, nll
    raise ConfigError(f"unknown GLM family {family!r}")


def _logistic_weight(t):
    e = expit(t)
    return e * (1.0 - e)


def _glm_newton(x, y, family, tol, max_iter, guard, max_halvings):
    """Damped Newton on the GLM negative log-likelihood.

    Returns (beta, objective path, final gradient inf-norm, iterations).
    """
    mean, weight, nll = _glm_funcs(family)
    n, p = x.shape
    beta = np.zeros(p)
    objective = nll(np.zeros(n), y)
    path = [objective]
    grad_norm = np.inf
    t = x @ beta
    grad = x.T @ (mean(t) - y)
    for it in range(1, max_iter + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            return beta, path, grad_norm, it - 1
        try:
            fac = cho_factor(weighted_gram(x, weight(t)), overwrite_a=True)
        except LinAlgError as err:
            raise SolverError(f"Newton system is singular: {err}") from err
        direction = -cho_solve(fac, grad)
        # Quadratic-phase acceptance: take the full step whenever it halves
        # the gradient.  Near the optimum the objective decrease falls below
        # float resolution, so an Armijo test alone stalls.  An accepted
        # step carries its index and gradient into the next iteration.
        candidate = beta + direction
        full_t = x @ candidate
        full_value = nll(full_t, y)
        full_grad = x.T @ (mean(full_t) - y)
        if np.isfinite(full_value) and np.all(np.isfinite(full_grad)) and (
            np.max(np.abs(full_grad)) <= 0.5 * grad_norm
        ):
            value, t, grad = full_value, full_t, full_grad
        else:
            slope = float(grad @ direction)
            step = 1.0
            for _ in range(max_halvings + 1):
                candidate = beta + step * direction
                t = x @ candidate
                value = nll(t, y)
                if np.isfinite(value) and value < objective + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                raise SolverError("line search failed to decrease the objective")
            grad = x.T @ (mean(t) - y)
        beta = candidate
        objective = value
        path.append(objective)
        if np.linalg.norm(beta) > guard:
            raise NonexistenceError(
                f"{family} MLE diverged (norm exceeded {guard:g}); "
                "the likelihood has no maximizer"
            )
    raise NonConvergenceError(
        f"{family} Newton did not converge in {max_iter} iterations "
        f"(gradient inf-norm {grad_norm:.3e})",
        iterations=max_iter,
        grad_norm=grad_norm,
        beta=beta,
    )


def glm_mle_fit(
    x: np.ndarray,
    y: np.ndarray,
    family: str,
    tol: float = 1e-8,
    max_iter: int = 100,
    guard: float = 1e6,
    max_halvings: int = 30,
) -> np.ndarray:
    """MLE for logistic or Poisson regression by damped Newton."""
    if family == "logistic" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ConfigError("logistic family needs responses in {0, 1}")
    if family == "poisson" and (np.any(y < 0) or np.any(y != np.round(y))):
        raise ConfigError("poisson family needs nonnegative integer responses")
    beta, _, _, _ = _glm_newton(x, y, family, tol, max_iter, guard, max_halvings)
    if family == "logistic":
        # Perfect separation by the fitted direction means the likelihood
        # has no maximizer (the gradient can meet the tolerance at a finite
        # point on the separating ray long before the norm guard trips).
        margins = (2.0 * y - 1.0) * (x @ beta)
        if np.min(margins) >= 0.0 and np.max(margins) > 0.0:
            raise NonexistenceError(
                "logistic MLE does not exist: the data are separated"
            )
    return beta


def glm_vtilde(x: np.ndarray, weights: np.ndarray) -> float:
    """n^{-1} tr(D - D X (X'DX)^{-1} X'D) for the MLE adjustment."""
    return adjustment_trace(x, weights, 0.0) / x.shape[0]


def _ridge_adjustments(beta, x, y, lam, v) -> Adjustments:
    """Ridge adjustments given v = n^{-1} tr(I - X(X'X + n lam I)^{-1}X')."""
    n, p = x.shape
    kappa = p / n
    if v + lam <= 0:
        raise DegenerateError("ridge adjustment has v + lambda = 0")
    resid = y - x @ beta
    gamma = kappa / (v + lam)
    sigma2 = kappa * float(resid @ resid) / (n * (v + lam) ** 2)
    mu = float(np.sqrt(abs(float(beta @ beta) - sigma2)))
    return Adjustments(v=float(v), gamma=float(gamma), mu=mu, sigma2=sigma2, kappa=kappa)


def pilot_adjustments(
    beta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    lam: Optional[float] = None,
) -> Adjustments:
    """Observable adjustments for a pilot fitted on (x, y).

    Dispatch on kind:
      ridge:  v = n^{-1} tr(I - X(X'X + n lam I)^{-1}X'), gamma = kappa/(v+lam),
              sigma^2 = kappa ||y - X b||^2 / (n (v+lam)^2),
              mu = | ||b||^2 - sigma^2 |^{1/2}
      ls:     gamma = kappa/(1-kappa), sigma^2 = gamma ||y - X b||^2 / (n (1-kappa)),
              mu = | ||X b||^2/n - (1-kappa) sigma^2 |^{1/2}
      *-mle:  D = diag(g0'(X b)), v = n^{-1} tr(D - DX(X'DX)^{-1}X'D),
              gamma = kappa/v, sigma^2 = kappa ||y - g0(X b)||^2 / (n v^2),
              mu as for ls
    """
    n, p = x.shape
    kappa = p / n
    if kind == "ridge":
        if lam is None or lam <= 0:
            raise ConfigError("ridge adjustments need a positive lambda")
        return _ridge_adjustments(beta, x, y, lam, adjustment_trace(x, np.ones(n), n * lam) / n)
    if kind == "ls":
        if kappa >= 1:
            raise DegenerateError("least-squares adjustments need kappa < 1")
        resid = y - x @ beta
        gamma = kappa / (1.0 - kappa)
        sigma2 = gamma * float(resid @ resid) / (n * (1.0 - kappa))
        xb = x @ beta
        mu = float(np.sqrt(abs(float(xb @ xb) / n - (1.0 - kappa) * sigma2)))
        return Adjustments(
            v=1.0 - kappa, gamma=float(gamma), mu=mu, sigma2=sigma2, kappa=kappa
        )
    if kind in _MLE_FAMILY:
        family = _MLE_FAMILY[kind]
        mean, weight, _ = _glm_funcs(family)
        xb = x @ beta
        v = glm_vtilde(x, weight(xb))
        if v == 0:
            raise DegenerateError("MLE adjustment has v = 0")
        gamma = kappa / v
        resid = y - mean(xb)
        sigma2 = kappa * float(resid @ resid) / (n * v ** 2)
        mu = float(np.sqrt(abs(float(xb @ xb) / n - (1.0 - kappa) * sigma2)))
        return Adjustments(
            v=float(v), gamma=float(gamma), mu=mu, sigma2=sigma2, kappa=kappa
        )
    raise ConfigError(f"unknown pilot kind {kind!r}; choose from {PILOT_KINDS}")


def pilot_score_residual(fit: PilotFit, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Score residual of the pilot's loss at the fitted indices.

    Quadratic-loss pilots (ridge, least squares) leave y - X b; the MLE
    pilots leave y - g0(X b) with their canonical mean function.  This is
    the residual that debiases the index estimator.
    """
    xb = x @ fit.beta
    if fit.kind in ("ridge", "ls"):
        return y - xb
    if fit.kind in _MLE_FAMILY:
        mean, _, _ = _glm_funcs(_MLE_FAMILY[fit.kind])
        return y - mean(xb)
    raise ConfigError(f"unknown pilot kind {fit.kind!r}")


def fit_pilot(
    x: np.ndarray, y: np.ndarray, kind: str = "ridge", lam: Optional[float] = None
) -> PilotFit:
    """Fit a pilot of the given kind and attach its adjustments.

    For ridge the solve and the trace share one factorization.
    """
    if kind == "ridge":
        lam = 1.0 if lam is None else lam
        if lam <= 0:
            raise ConfigError("ridge penalty must be positive")
        beta, v = _ridge_solve(x, y, lam, want_trace=True)
        adj = _ridge_adjustments(beta, x, y, lam, v)
        return PilotFit(beta=beta, kind=kind, lam=lam, adjustments=adj)
    if kind == "ls":
        beta = least_squares_fit(x, y)
    elif kind in _MLE_FAMILY:
        beta = glm_mle_fit(x, y, _MLE_FAMILY[kind])
    else:
        raise ConfigError(f"unknown pilot kind {kind!r}; choose from {PILOT_KINDS}")
    adj = pilot_adjustments(beta, x, y, kind)
    return PilotFit(beta=beta, kind=kind, lam=None, adjustments=adj)
