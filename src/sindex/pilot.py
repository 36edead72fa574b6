"""Pilot estimators, their observable adjustments and the debiased index.

Four pilots: ridge, least squares, and the logistic / Poisson MLEs.  Each
comes with the data-computable adjustment quantities (v, gamma, mu, sigma^2)
that calibrate the debiased index estimator in the proportional regime.
One table, PILOT_LINKS, gives each kind's working link, and one formula,
observable_adjustments, gives the adjustments for every pilot and for the
refit's inferential parameters.  The pilot fit keeps its indices and score
residual, from which debias_index forms the index.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError

from ._linalg import (
    Gram, adjustment_trace, cho_factor, cho_inverse_diag, cho_solve, weighted_gram
)
from .deconv import IndexEstimate
from .errors import (
    ConfigError,
    DegenerateError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
    SolverError,
)
from .models import EXP_LINK, IDENTITY_LINK, LOGISTIC_LINK
from .surrogate import fit_coefficients

#: GLM family of each MLE pilot, and the canonical link of each family.
MLE_FAMILY = {"logit-mle": "logistic", "pois-mle": "poisson"}
GLM_LINKS = {"logistic": LOGISTIC_LINK, "poisson": EXP_LINK}

#: Working link of each pilot kind: the quadratic-loss pilots fit the
#: identity, the MLE pilots their family's canonical link.
PILOT_LINKS = {
    "ridge": IDENTITY_LINK,
    "ls": IDENTITY_LINK,
    **{kind: GLM_LINKS[family] for kind, family in MLE_FAMILY.items()},
}
PILOT_KINDS = tuple(PILOT_LINKS)

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
    """A pilot b, its adjustments, indices z = X b and score psi = y - g(z)."""

    beta: np.ndarray
    kind: str
    lam: Optional[float]
    adjustments: Adjustments
    indices: np.ndarray
    score: np.ndarray


def _ridge_solve(x, y, lam, gram):
    """Solve the ridge system (X'X + n lam I) b = X'y, and return
    tr(I - X A^{-1} X') / n from the same factorization.

    gram, a Gram of x, supplies the factor: of the n-by-n system on its dual path.
    """
    n, p = x.shape
    c = n * lam
    try:
        fac = gram.take_factor(None, c)
    except LinAlgError as err:
        raise SolverError(f"ridge system could not be factorized: {err}") from err
    dual = gram.dual(c)
    beta = x.T @ cho_solve(fac, y) if dual else cho_solve(fac, x.T @ y)
    tr_inv = np.sum(cho_inverse_diag(fac))
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
        return cho_solve(cho_factor(weighted_gram(x)), x.T @ y)
    except LinAlgError as err:
        raise NonIdentifiableError(f"design is rank deficient: {err}") from err


def glm_mle_fit(x: np.ndarray, y: np.ndarray, family: str, gram=None) -> np.ndarray:
    """MLE for logistic or Poisson regression: the surrogate Newton fit with
    the family's canonical link, on gram (a Gram of x) when given.

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
        beta, failure = fit_coefficients(x, y, GLM_LINKS[family], gram=gram).beta, None
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
    y: np.ndarray,
    beta: np.ndarray,
    z: np.ndarray,
    fitted: np.ndarray,
    v: float,
    lam: float = 0.0,
) -> Adjustments:
    """Observable adjustments of an M-estimator b with working link g.

    The caller supplies the indices z = X b (clamped to the censoring
    window when censoring), the fitted values g(z), and
    v = n^{-1} tr(D - DX(X'DX + n lam I)^{-1}X'D) with D = diag(g'(z)):
      gamma = kappa / (v + lam),
      sigma^2 = kappa ||y - g(z)||^2 / (n (v + lam)^2),
      mu = | ||b||^2 - sigma^2 |^{1/2}                  (lam > 0)
      mu = | ||z||^2 / n - (1 - kappa) sigma^2 |^{1/2}  (lam = 0)
    """
    n, p = len(y), len(beta)
    kappa = p / n
    if v + lam <= 0:
        raise DegenerateError("observable adjustment has v + lambda <= 0")
    try:
        denom = n * (v + lam) ** 2
    except OverflowError:  # a float's power raises where a product gives inf
        denom = np.inf
    if not 0.0 < denom < np.inf:  # an extreme lambda under- or overflows it
        raise DegenerateError(f"observable adjustment has n (v + lambda)^2 = {denom}")
    resid = y - fitted
    gamma = kappa / (v + lam)
    sigma2 = kappa * float(resid @ resid) / denom
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


def check_pilot(kind: str, lam: Optional[float]) -> None:
    """A ConfigError unless kind is a pilot kind and a ridge pilot's lam is
    finite and positive or None (which fit_pilot reads as 1)."""
    if kind not in PILOT_LINKS:
        raise ConfigError(f"unknown pilot kind {kind!r}; choose from {PILOT_KINDS}")
    # Negated, so that nan fails it too.
    if kind == "ridge" and lam is not None and not 0.0 < lam < np.inf:
        raise ConfigError(f"ridge penalty must be positive and finite: pilot lambda = {lam}")


def fit_pilot(
    x: np.ndarray,
    y: np.ndarray,
    kind: str = "ridge",
    lam: Optional[float] = None,
    gram=None,
) -> PilotFit:
    """Fit a pilot of the given kind and attach its adjustments.

    The adjustments are observable_adjustments with the kind's working link
    g (PILOT_LINKS) at the indices z = X b, and v from
      ridge:  the solve's factorization:
              v = n^{-1} tr(I - X(X'X + n lam I)^{-1}X')
      ls:     v = 1 - kappa
      *-mle:  v = n^{-1} tr(D - DX(X'DX)^{-1}X'D) with D = diag(g'(z))
    gram, a Gram of x (built when not given), serves every solve on x.
    """
    check_pilot(kind, lam)
    n, p = x.shape
    gram = Gram(x) if gram is None else gram
    if kind == "ridge":
        lam = 1.0 if lam is None else lam
        beta, v = _ridge_solve(x, y, lam, gram)
    elif kind == "ls":
        lam, beta, v = None, least_squares_fit(x, y), 1.0 - p / n
    else:
        lam, beta = None, glm_mle_fit(x, y, MLE_FAMILY[kind], gram)
    z = x @ beta
    _, fitted, weights = PILOT_LINKS[kind].evaluate(z)
    if kind in MLE_FAMILY:
        v = adjustment_trace(x, weights, 0.0, gram) / n
    adj = observable_adjustments(y, beta, z, fitted, v, lam or 0.0)
    return PilotFit(beta, kind, lam, adj, indices=z, score=y - fitted)


def debias_index(pilot: PilotFit) -> IndexEstimate:
    """W_i = mu^{-1} (z_i - gamma psi_i) from the pilot's indices z and score
    psi, with noise ratio sigma^2 / mu^2.  psi is the score of the pilot's own
    loss, so mu (W - X beta) / sigma stays standard normal for every kind."""
    adj = pilot.adjustments
    # Negated, so that nan fails them too.
    if not 0.0 < adj.mu < np.inf:
        raise DegenerateError(f"pilot adjustment mu = {adj.mu}; the index is undefined")
    if not np.isfinite(adj.sigma2):
        raise DegenerateError(f"pilot adjustment sigma^2 = {adj.sigma2} is not finite")
    w = (pilot.indices - adj.gamma * pilot.score) / adj.mu
    return IndexEstimate(w=w, varsigma2=adj.sigma2 / adj.mu ** 2)


def index_zscores(
    est: IndexEstimate, x: np.ndarray, beta: np.ndarray, pilot: PilotFit
) -> np.ndarray:
    """Simulation diagnostic mu (W - X beta) / sigma against the true beta."""
    adj = pilot.adjustments
    if not 0.0 < adj.sigma2 < np.inf:
        raise DegenerateError(f"pilot adjustment sigma^2 = {adj.sigma2}; no z-scores")
    return adj.mu * (est.w - x @ beta) / np.sqrt(adj.sigma2)
