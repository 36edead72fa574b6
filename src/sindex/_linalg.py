"""Weighted Gram matrices, their Cholesky inverses, and the adjustment trace.

A weighted Gram matrix is S'S (or SS' on the dual path) with S = D^{1/2} X,
which BLAS evaluates as a symmetric rank-k update (syrk).  One fit solves
against several of them on the same design: the ridge pilot, every Newton
step of the refit, and the inference trace at the fitted coefficients.  A
Gram object keeps the work that carries over between them: on the dual
path the unweighted XX', rescaled for each weight vector; on the primal
path the last X'DX, updated over the rows whose weight changed.
"""

import numpy as np
from scipy.linalg import cho_factor, LinAlgError
from scipy.linalg.lapack import dpotri

from .errors import RankError

#: The primal X'DX is updated over the changed rows when at most this share
#: of the weights changed, and rebuilt otherwise: at 2000 x 800, updating
#: half of the rows costs about as much as the rebuild.
_UPDATE_SHARE = 0.5

#: The update's rounding scales with the rows it adds and removes, not with
#: the X'DX it leaves.  So X'DX is rebuilt once the last rebuild and the
#: updates since weigh, by trace, more than this many times the current
#: X'DX, as when most of the weight falls to zero.
_UPDATE_MASS = 4.0


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


class Gram:
    """Weighted Gram matrices of one design x, for a sequence of weights.

    weighted(weights, ridge, dual) equals weighted_gram(x, weights, ridge,
    dual) up to rounding, and returns a fresh Fortran-ordered matrix that
    the caller may factor in place.
    """

    def __init__(self, x):
        self.x = x
        self._xxt = None
        self._xdx = None
        self._weights = None
        self._norms = None
        self._mass = 0.0

    def weighted(self, weights=None, ridge=0.0, dual=False):
        if dual:
            if self._xxt is None:
                self._xxt = weighted_gram(self.x, dual=True)
            if weights is None:
                gram = self._xxt.copy(order="F")
            else:
                s = np.sqrt(weights)
                gram = np.multiply(self._xxt, s[:, None], order="F")
                gram *= s
        else:
            gram = self._primal(weights).copy(order="F")
        if ridge > 0.0:
            gram[np.diag_indices_from(gram)] += ridge
        return gram

    def _primal(self, weights):
        """X'DX, from the last one when few weights changed."""
        weights = np.ones(len(self.x)) if weights is None else np.array(weights, dtype=float)
        if self._norms is None:
            self._norms = np.einsum("ij,ij->i", self.x, self.x)
        if self._weights is not None:
            delta = weights - self._weights
            changed = np.flatnonzero(delta)
            # tr(S+'S+ + S-'S-), summed with the earlier ones; a weight or
            # row that is not finite makes it inf or nan, and X'DX rebuilt.
            mass = self._mass + np.abs(delta[changed]) @ self._norms[changed]
            if (
                len(changed) <= _UPDATE_SHARE * len(weights)
                and np.isfinite(mass)
                and mass <= _UPDATE_MASS * (weights @ self._norms)
            ):
                # X'D'X = X'DX + S+'S+ - S-'S-, where S+ (S-) is
                # |w' - w|^{1/2} X over the rows whose weight rose (fell).
                rise = changed[delta[changed] > 0]
                fall = changed[delta[changed] < 0]
                if len(rise):
                    self._xdx += weighted_gram(self.x[rise], delta[rise])
                if len(fall):
                    self._xdx -= weighted_gram(self.x[fall], -delta[fall])
                self._weights = weights
                self._mass = mass
                return self._xdx
        self._xdx = weighted_gram(self.x, weights)
        self._weights = weights
        self._mass = weights @ self._norms
        return self._xdx


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


def adjustment_trace(
    x: np.ndarray, weights: np.ndarray, ridge: float, gram=None
) -> float:
    """tr(D - D X (X'DX + ridge I)^{-1} X'D) with D = diag(weights).

    For ridge > 0 and p > n the push-through identity gives
    tr = ridge * tr(D (S S' + ridge I)^{-1}) with S = D^{1/2} X.  Otherwise
    tr(B^{-1} C), B = X'DX + ridge I and C = (DX)'(DX) both symmetric, is
    summed over the upper triangle of B^{-1}.  gram, a Gram of x, supplies
    B (or SS' + ridge I); without it a private one is built.  Raises
    RankError when the Gram matrix is singular.
    """
    n, p = x.shape
    weights = np.asarray(weights, dtype=float)
    dual = ridge > 0.0 and p > n
    gram = Gram(x) if gram is None else gram
    try:
        fac = cho_factor(gram.weighted(weights, ridge, dual), overwrite_a=True)
    except LinAlgError as err:
        raise RankError(f"weighted Gram matrix is singular: {err}") from err
    inv = cho_inverse(fac)
    if dual:
        return float(ridge * np.sum(weights * np.diag(inv)))
    c = weighted_gram(x, weights * weights)
    upper = np.triu(inv)
    return float(np.sum(weights) - 2.0 * np.vdot(upper, c) + np.diag(upper) @ np.diag(c))
