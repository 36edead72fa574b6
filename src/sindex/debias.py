"""Debiased index estimator and its standardized diagnostic."""

import numpy as np

from .deconv import IndexEstimate
from .errors import DegenerateError
from .pilot import PILOT_LINKS, PilotFit


def debias_index(x: np.ndarray, y: np.ndarray, fit: PilotFit) -> IndexEstimate:
    """W_i = mu^{-1} (b'X_i - gamma psi_i) for the pilot b.

    psi = y - g(b'X) is the score residual of the pilot's loss, with the
    working link g of its kind (PILOT_LINKS): the identity for the
    quadratic-loss pilots, the canonical mean for the MLE pilots.  Using
    the score keeps the standardized index mu (W - X beta) / sigma standard
    normal for every pilot kind.
    """
    adj = fit.adjustments
    if adj.mu <= 0:
        raise DegenerateError("pilot adjustment mu is zero; index is undefined")
    xb = x @ fit.beta
    w = (xb - adj.gamma * (y - PILOT_LINKS[fit.kind](xb))) / adj.mu
    return IndexEstimate(w=w, varsigma2=adj.sigma2 / adj.mu ** 2)


def index_zscores(
    est: IndexEstimate, x: np.ndarray, beta: np.ndarray, fit: PilotFit
) -> np.ndarray:
    """Simulation diagnostic mu (W - X beta) / sigma against the true beta."""
    adj = fit.adjustments
    if adj.sigma2 <= 0:
        raise DegenerateError("pilot adjustment sigma is zero")
    return adj.mu * (est.w - x @ beta) / np.sqrt(adj.sigma2)
