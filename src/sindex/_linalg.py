"""Weighted Gram matrices, Cholesky factors and inverses, and the adjustment trace.

A weighted Gram matrix is S'S (or SS' on the dual path) with S = D^{1/2} X,
which BLAS evaluates as a symmetric rank-k update (syrk).  One fit solves
against several of them on the same design: the ridge pilot, every Newton
step of the refit, and the inference trace at the fitted coefficients.  A
Gram object keeps the work that carries over between them: on the dual
path the unweighted XX', rescaled for each weight vector; on the primal
path the last X'DX, updated over the rows whose weight changed; and the
Cholesky factor of the last matrix it factored, which the trace takes over
when the refit's last Newton step left the weights where the fit ended.

Every factorization, solve and inverse in sindex goes through here,
straight to LAPACK: the matrices are built from checked data, so the one
finiteness check each entry makes replaces scipy's wrappers, which rescan
every operand on every call.  A factor is the lower triangle L of A = LL',
with the upper triangle zeroed, and the one inverse is L^{-1}
(tri_inverse): diagonals of A^{-1} are its squared column norms, and the
adjustment trace is a squared Frobenius norm of a product with it.
"""

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .errors import RankError, SolverError

#: The primal X'DX is updated over the changed rows when at most this share
#: of the weights changed, and rebuilt otherwise: at 2000 x 800, updating
#: half of the rows costs about as much as the rebuild.
_UPDATE_SHARE = 0.5

#: The update's rounding scales with the rows it adds and removes, not with
#: the X'DX it leaves.  So X'DX is rebuilt once the last rebuild and the
#: updates since weigh, by trace, more than this many times the current
#: X'DX, as when most of the weight falls to zero.
_UPDATE_MASS = 4.0

#: tri_inverse halves a triangle until it has at most this many rows, and
#: inverts those blocks with LAPACK's dtrtri.  With one BLAS thread on a
#: shared 2-core Xeon, L^{-1} took about 0.3 against dtrtri's 0.65 ms at 250
#: rows, and 4.5 against 10 ms at 800; bases of 32 and 128 were slower.
_TRTRI_BASE = 64


def weighted_gram(x, weights=None, ridge=0.0, dual=False):
    """S'S + ridge I = X'DX + ridge I, or SS' + ridge I when dual, with
    S = D^{1/2} X and D = diag(weights).

    The weights must be nonnegative; None stands for the identity.  The
    matrix is returned Fortran-ordered (as its own transpose, being
    symmetric), so that cho_factor factors it in place.
    """
    sx = x if weights is None else np.sqrt(weights)[:, None] * x
    gram = sx @ sx.T if dual else sx.T @ sx
    if ridge > 0.0:
        gram[np.diag_indices_from(gram)] += ridge
    return gram.T


class Gram:
    """Weighted Gram matrices of one design x, for a sequence of weights.

    weighted(weights, ridge) equals weighted_gram(x, weights, ridge,
    dual(ridge)) up to rounding: the Gram alone picks the path from the
    ridge and the shape.  It returns a fresh Fortran-ordered matrix that the
    caller may factor in place; factor(weights, ridge) is its cho_factor,
    kept until the next call of either.
    """

    def __init__(self, x):
        self.x = x
        self._xxt = None
        self._xdx = None
        self._weights = None
        self._norms = None
        self._mass = None
        self._factor = None
        self._factored = None

    def dual(self, ridge):
        """Whether matrices at this ridge are SS' + ridge I: ridge > 0, p > n."""
        return ridge > 0.0 and self.x.shape[1] > self.x.shape[0]

    def factor(self, weights, ridge=0.0):
        """cho_factor of weighted(weights, ridge), the kept one when the
        last factor was of exactly these weights and ridge.  The caller must
        not overwrite it; take_factor hands it over."""
        last = self._factored
        same = last is not None and last[1] == ridge
        if not (same and np.array_equal(last[0], weights)):
            matrix = self.weighted(weights, ridge)
            self._factor = cho_factor(matrix)
            self._factored = (np.array(weights, dtype=float), ridge)
        return self._factor

    def take_factor(self, weights, ridge=0.0):
        """factor(weights, ridge), for the caller to overwrite: the Gram
        forgets it, and its X'DX too, so that the next call rebuilds."""
        fac = self.factor(weights, ridge)
        self._factor = self._factored = None
        self._xdx = self._weights = None
        return fac

    def weighted(self, weights=None, ridge=0.0):
        # The kept factor goes first: it is not of this matrix, and the
        # memory it frees is about the size of the one built here.
        self._factor = self._factored = None
        if self.dual(ridge):
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
        """X'DX, from the last one when few weights changed; unit weights
        (None) build X'X from x itself."""
        unit = weights is None
        weights = np.ones(len(self.x)) if unit else np.array(weights, dtype=float)
        delta = None if self._weights is None else weights - self._weights
        # Counted first (a nan counts as changed): each Newton step of an MLE
        # pilot changes every weight, and then nothing is gathered.
        if delta is not None and np.count_nonzero(delta) <= _UPDATE_SHARE * len(weights):
            # The row norms and the last rebuild's mass wait for the first
            # update: a Gram that only ever rebuilds never reads them.
            if self._norms is None:
                self._norms = np.einsum("ij,ij->i", self.x, self.x)
            if self._mass is None:
                self._mass = self._weights @ self._norms
            changed = np.flatnonzero(delta)
            # tr(S+'S+ + S-'S-), summed with the earlier ones; a weight or
            # row that is not finite makes it inf or nan, and X'DX rebuilt.
            mass = self._mass + np.abs(delta[changed]) @ self._norms[changed]
            if np.isfinite(mass) and mass <= _UPDATE_MASS * (weights @ self._norms):
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
        self._xdx = weighted_gram(self.x, None if unit else weights)
        self._weights = weights
        self._mass = None
        return self._xdx


def cho_factor(a):
    """Lower Cholesky factor (c, True) of the symmetric positive definite a,
    as scipy.linalg.cho_factor(a, lower=True, overwrite_a=True) gives it,
    but with the upper triangle zeroed: in place when a is Fortran-ordered.

    Raises SolverError when a is not finite, LinAlgError when it is not
    positive definite.
    """
    if not np.isfinite(a).all():
        raise SolverError("matrix to factor is not finite")
    c, info = dpotrf(a, lower=1, overwrite_a=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def cho_solve(factor, b):
    """A^{-1} b from factor = cho_factor(A), as scipy.linalg.cho_solve; only
    b is checked, as cho_factor checked A.  Raises SolverError when b is not
    finite."""
    if not np.isfinite(b).all():
        raise SolverError("right-hand side is not finite")
    c, lower = factor
    x, info = dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def cho_inverse_diag(factor):
    """diag(A^{-1}) from a lower factor = (L, True) of A = LL' whose upper
    triangle is zero, overwriting L: the squared column norms of L^{-1}."""
    inv = tri_inverse(factor[0])
    return np.einsum("ij,ij->j", inv, inv)


def tri_inverse(c):
    """L^{-1} written over the lower triangular c, upper triangle zero.

    With L = [[A, 0], [B, C]], L^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1},
    C^{-1}]]: the two halves recurse, and two triangular products (trmm)
    give the corner, so most of the work runs at matrix-multiply speed.
    """
    n = len(c)
    if n <= _TRTRI_BASE:
        inv, info = dtrtri(c, lower=1)
        if info != 0:
            raise LinAlgError(f"trtri failed with info = {info}")
        c[...] = inv
        return c
    k = n // 2
    a = tri_inverse(c[:k, :k])
    d = tri_inverse(c[k:, k:])
    b = dtrmm(1.0, a, c[k:, :k], side=1, lower=1)
    c[k:, :k] = dtrmm(-1.0, d, b, lower=1, overwrite_b=1)
    return c


def adjustment_trace(
    x: np.ndarray, weights: np.ndarray, ridge: float, gram=None
) -> float:
    """tr(D - D X (X'DX + ridge I)^{-1} X'D) with D = diag(weights).

    On the Gram's n-by-n path the push-through identity gives
    tr = ridge * tr(D (S S' + ridge I)^{-1}) with S = D^{1/2} X, which
    needs only the diagonal of the inverse.  Otherwise, with B = X'DX +
    ridge I = LL', tr(B^{-1} (DX)'(DX)) = ||L^{-1} (DX)'||_F^2.  gram, a
    Gram of x, supplies B (or SS' + ridge I) and takes its factor over,
    which is the refit's last one when the weights are those of its last
    Newton step; without it a private one is built.  Raises RankError when
    the Gram matrix is singular.
    """
    weights = np.asarray(weights, dtype=float)
    gram = Gram(x) if gram is None else gram
    try:
        fac = gram.take_factor(weights, ridge)
    except LinAlgError as err:
        raise RankError(f"weighted Gram matrix is singular: {err}") from err
    if gram.dual(ridge):
        return float(ridge * np.sum(weights * cho_inverse_diag(fac)))
    # (DX)' is Fortran-ordered when x is C-ordered, so trmm overwrites it.
    m = dtrmm(1.0, tri_inverse(fac[0]), (weights[:, None] * x).T, lower=1, overwrite_b=1)
    m = m.ravel(order="K")
    return float(np.sum(weights) - m @ m)
