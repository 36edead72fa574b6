"""Pilot estimators and their observable adjustments.

Four pilots: ridge, least squares, and the logistic / Poisson MLEs.  Each
comes with the data-computable adjustment quantities (v, gamma, mu, sigma^2)
that calibrate the debiased index estimator in the proportional regime.
One formula, observable_adjustments, gives them for every pilot and for the
refit's inferential parameters.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from ._linalg import adjustment_trace, cho_inverse, weighted_gram
from .errors import (
    ConfigError,
    DegenerateError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
    SolverError,
)
from .models import EXP_LINK, IDENTITY_LINK, LOGISTIC_LINK
from .surrogate import WorkingLink, fit_coefficients

PILOT_KINDS = ("ridge", "ls", "logit-mle", "pois-mle")

#: GLM family of each MLE pilot, and the canonical link of each family.
MLE_FAMILY = {"logit-mle": "logistic", "pois-mle": "poisson"}
GLM_LINKS = {"logistic": LOGISTIC_LINK, "poisson": EXP_LINK}

#: Norm beyond which a GLM Newton iterate counts as diverged.
_DIVERGENCE_NORM = 1e6


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
    return _ridge_solve(x, y, lam)[0]


def _ridge_solve(x, y, lam):
    """Solve the ridge system, and return tr(I - X A^{-1} X') / n from the
    same factorization."""
    n, p = x.shape
    c = n * lam
    dual = p > n
    try:
        fac = cho_factor(weighted_gram(x, ridge=c, dual=dual), overwrite_a=True)
    except LinAlgError as err:
        raise SolverError(f"ridge system could not be factorized: {err}") from err
    beta = x.T @ cho_solve(fac, y) if dual else cho_solve(fac, x.T @ y)
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


def glm_mle_fit(x: np.ndarray, y: np.ndarray, family: str) -> np.ndarray:
    """MLE for logistic or Poisson regression: the surrogate Newton fit with
    the family's canonical link.

    Raises NonexistenceError when the likelihood has no maximizer: the
    logistic data are separated, or the iterate's norm passes 1e6.
    """
    if family not in GLM_LINKS:
        raise ConfigError(f"unknown GLM family {family!r}")
    if family == "logistic" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ConfigError("logistic family needs responses in {0, 1}")
    if family == "poisson" and (np.any(y < 0) or np.any(y != np.round(y))):
        raise ConfigError("poisson family needs nonnegative integer responses")
    if x.shape[0] <= x.shape[1]:
        raise NonIdentifiableError(f"{family} MLE needs n > p")
    try:
        beta, failure = fit_coefficients(x, y, GLM_LINKS[family]).beta, None
    except NonConvergenceError as err:
        beta, failure = err.beta, err
    if np.linalg.norm(beta) > _DIVERGENCE_NORM:
        raise NonexistenceError(
            f"{family} MLE diverged (norm exceeded {_DIVERGENCE_NORM:g}); "
            "the likelihood has no maximizer"
        )
    if family == "logistic":
        # Perfect separation by the fitted direction means the likelihood
        # has no maximizer (the gradient can meet the tolerance at a finite
        # point on the separating ray long before the norm guard trips).
        margins = (2.0 * y - 1.0) * (x @ beta)
        if np.min(margins) >= 0.0 and np.max(margins) > 0.0:
            raise NonexistenceError(
                "logistic MLE does not exist: the data are separated"
            )
    if failure is not None:
        raise failure
    return beta


def observable_adjustments(
    x: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    link: WorkingLink,
    v: float,
    lam: float = 0.0,
    censor=None,
) -> Adjustments:
    """Observable adjustments of an M-estimator b with working link g, from
    link.evaluate.

    v = n^{-1} tr(D - DX(X'DX + n lam I)^{-1}X'D), D = diag(g'(z)), comes
    from the caller; z = X b, clamped by censor.censor when a censor is
    given:
      gamma = kappa / (v + lam),
      sigma^2 = kappa ||y - g(z)||^2 / (n (v + lam)^2),
      mu = | ||b||^2 - sigma^2 |^{1/2}                  (lam > 0)
      mu = | ||z||^2 / n - (1 - kappa) sigma^2 |^{1/2}  (lam = 0)
    """
    n, p = x.shape
    kappa = p / n
    if v + lam <= 0:
        raise DegenerateError("observable adjustment has v + lambda <= 0")
    z = x @ beta
    if censor is not None:
        z = censor.censor(z)
    resid = y - link.evaluate(z)[1]
    gamma = kappa / (v + lam)
    sigma2 = kappa * float(resid @ resid) / (n * (v + lam) ** 2)
    if lam > 0:
        radicand = float(beta @ beta) - sigma2
    else:
        radicand = float(z @ z) / n - (1.0 - kappa) * sigma2
    return Adjustments(
        v=float(v),
        gamma=float(gamma),
        mu=float(np.sqrt(abs(radicand))),
        sigma2=sigma2,
        kappa=kappa,
    )


def pilot_adjustments(
    beta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    lam: Optional[float] = None,
) -> Adjustments:
    """Observable adjustments for a pilot fitted on (x, y).

    Each kind supplies the working link and v of observable_adjustments:
      ridge:  identity link, v = n^{-1} tr(I - X(X'X + n lam I)^{-1}X')
      ls:     identity link, v = 1 - kappa
      *-mle:  canonical link g0, v = n^{-1} tr(D - DX(X'DX)^{-1}X'D) with
              D = diag(g0'(X b))
    """
    n, p = x.shape
    if kind == "ridge":
        if lam is None or lam <= 0:
            raise ConfigError("ridge adjustments need a positive lambda")
        v = adjustment_trace(x, np.ones(n), n * lam) / n
        return observable_adjustments(x, y, beta, IDENTITY_LINK, v, lam)
    if kind == "ls":
        return observable_adjustments(x, y, beta, IDENTITY_LINK, 1.0 - p / n)
    if kind in MLE_FAMILY:
        link = GLM_LINKS[MLE_FAMILY[kind]]
        v = adjustment_trace(x, link.deriv(x @ beta), 0.0) / n
        return observable_adjustments(x, y, beta, link, v)
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
    if fit.kind in MLE_FAMILY:
        return y - GLM_LINKS[MLE_FAMILY[fit.kind]].value(xb)
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
        beta, v = _ridge_solve(x, y, lam)
        adj = observable_adjustments(x, y, beta, IDENTITY_LINK, v, lam)
        return PilotFit(beta=beta, kind=kind, lam=lam, adjustments=adj)
    if kind == "ls":
        beta = least_squares_fit(x, y)
    elif kind in MLE_FAMILY:
        beta = glm_mle_fit(x, y, MLE_FAMILY[kind])
    else:
        raise ConfigError(f"unknown pilot kind {kind!r}; choose from {PILOT_KINDS}")
    adj = pilot_adjustments(beta, x, y, kind)
    return PilotFit(beta=beta, kind=kind, lam=None, adjustments=adj)
