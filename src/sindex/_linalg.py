"""Weighted Gram matrices, their Cholesky inverses, and the adjustment trace.

Each Gram matrix is built once as S'S (or SS' on the dual path) from
S = D^{1/2} X, which BLAS evaluates as a symmetric rank-k update (syrk).
"""

import numpy as np
from scipy.linalg import cho_factor, LinAlgError
from scipy.linalg.lapack import dpotri

from .errors import RankError


def weighted_gram(x, weights=None, ridge=0.0, dual=False):
    """S'S + ridge I = X'DX + ridge I, or SS' + ridge I when dual, with
    S = D^{1/2} X and D = diag(weights).

    The weights must be nonnegative; None stands for the identity.  The
    matrix is returned Fortran-ordered (as its own transpose, being
    symmetric), so that cho_factor(..., overwrite_a=True) factors it in place.
    """
    sx = x if weights is None else np.sqrt(weights)[:, None] * x
    gram = sx @ sx.T if dual else sx.T @ sx
    if ridge > 0.0:
        gram[np.diag_indices_from(gram)] += ridge
    return gram.T


def cho_inverse(factor):
    """A^{-1} from factor = cho_factor(A), overwriting the factor.

    Only the triangle the factor occupies (the upper one unless the factor
    is lower) holds the inverse; the other triangle is left as it was.
    """
    c, lower = factor
    inv, info = dpotri(c, lower=lower, overwrite_c=1)
    if info != 0:
        raise LinAlgError(f"potri failed with info = {info}")
    return inv


def adjustment_trace(x: np.ndarray, weights: np.ndarray, ridge: float) -> float:
    """tr(D - D X (X'DX + ridge I)^{-1} X'D) with D = diag(weights).

    For ridge > 0 and p > n the push-through identity gives
    tr = ridge * tr(D (S S' + ridge I)^{-1}) with S = D^{1/2} X.  Otherwise
    tr(B^{-1} C), B = X'DX + ridge I and C = (DX)'(DX) both symmetric, is
    summed over the upper triangle of B^{-1}.  Raises RankError when the
    Gram matrix is singular.
    """
    n, p = x.shape
    weights = np.asarray(weights, dtype=float)
    dual = ridge > 0.0 and p > n
    try:
        fac = cho_factor(weighted_gram(x, weights, ridge, dual), overwrite_a=True)
    except LinAlgError as err:
        raise RankError(f"weighted Gram matrix is singular: {err}") from err
    inv = cho_inverse(fac)
    if dual:
        return float(ridge * np.sum(weights * np.diag(inv)))
    c = weighted_gram(x, weights * weights)
    upper = np.triu(inv)
    return float(np.sum(weights) - 2.0 * np.vdot(upper, c) + np.diag(upper) @ np.diag(c))
