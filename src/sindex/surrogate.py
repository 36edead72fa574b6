"""Surrogate-loss construction and coefficient fitting by damped Newton.

The loss for one observation is G(x'b) - y x'b where G' equals the working
link g.  With the canonical GLM links it reduces to the negative
log-likelihood; with a gridded link estimate it stays convex because the
derivative is floored away from zero.

A working link is any object with evaluate(t) -> (G, g, g'): a built-in
models.LinkFunction, or the deconvolution estimate deconv.LinkEstimate.
The solver evaluates it once per trial iterate and takes the objective,
the gradient and the next Newton system from that one evaluation.  The
penalty is a ridge of per-sample level lam, on exactly when lam > 0.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from ._linalg import weighted_gram
from .deconv import LinkEstimate
from .deconv import eval_link  # noqa: F401  (bench/tracer.py wraps it here)
from .errors import (
    ConfigError,
    NonConvergenceError,
    ObjectiveOverflowError,
    SolverError,
)
from .models import LinkFunction

#: The two working links: each has evaluate(t) -> (G, g, g').
WorkingLink = Union[LinkFunction, LinkEstimate]

#: Newton stops once the gradient inf-norm is below this.
_TOL = 1e-8

#: Step halvings the backtracking line search may take per iteration.
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class CoefFit:
    beta: np.ndarray
    lam: float
    iterations: int
    grad_norm: float
    converged: bool


def surrogate_objective(
    b: np.ndarray, x: np.ndarray, y: np.ndarray, link: WorkingLink, lam: float = 0.0
):
    """Objective value, gradient, and Hessian of the penalized surrogate loss."""
    value, g, gprime = _evaluate(x, y, b, link, lam)
    if not np.isfinite(value):
        raise ObjectiveOverflowError("surrogate objective is non-finite")
    ridge = lam * x.shape[0]
    grad = x.T @ (g - y) + ridge * b
    hess = weighted_gram(x, gprime, ridge)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ObjectiveOverflowError("surrogate gradient or Hessian is non-finite")
    return value, grad, hess


def _evaluate(x, y, b, link, lam):
    """Objective value (inf or nan on overflow), link values and link
    derivative at b, from one evaluation of the working link."""
    t = x @ b
    with np.errstate(over="ignore"):
        big_g, g, gprime = link.evaluate(t)
        value = float(np.sum(big_g) - float(y @ t))
    if lam > 0:
        value += 0.5 * lam * len(t) * float(b @ b)
    return value, g, gprime


def _newton_direction(x, w, ridge, grad):
    """Solve (X'WX + ridge I) d = -grad, through the n-by-n Woodbury system
    when p > n.

    A singular Hessian (possible when the link derivative vanishes at the
    current iterate, e.g. a cubic link at the zero start) falls back to a
    diagonally jittered solve (rebuilt, as the factorization overwrites it);
    any positive shift still yields a descent direction for the line search.
    """
    n, p = x.shape
    if ridge > 0.0 and p > n:
        try:
            fac = cho_factor(weighted_gram(x, w, ridge, dual=True), overwrite_a=True)
            s = np.sqrt(w)
            inner = cho_solve(fac, s * (x @ grad))
            return -(grad - x.T @ (s * inner)) / ridge
        except LinAlgError as err:
            raise SolverError(f"Newton system is singular: {err}") from err
    hess = weighted_gram(x, w, ridge)
    base = max(np.trace(hess) / p, float(np.linalg.norm(grad)), 1e-8)
    shift = 0.0
    for _ in range(12):
        try:
            return -cho_solve(cho_factor(hess, overwrite_a=True), grad)
        except LinAlgError:
            shift = base * 1e-8 if shift == 0.0 else shift * 100.0
            hess = weighted_gram(x, w, ridge + shift)
    raise SolverError("Newton system stayed singular under diagonal shifts")


def fit_coefficients(
    x: np.ndarray,
    y: np.ndarray,
    link: WorkingLink,
    lam: float = 0.0,
    max_iter: int = 100,
) -> CoefFit:
    """Minimize the surrogate loss sum G(x'b) - y x'b + n lam ||b||^2 / 2
    by damped Newton from zero.

    link.evaluate(t) gives (G, g, g') at the indices t, for the objective,
    the gradient and the Hessian.  lam is the per-sample ridge level: the
    penalty n lam ||b||^2 / 2 matches the convention of the ridge pilot and
    of the inferential adjustment traces (which regularize X'DX by n lam I).
    lam = 0 fits unpenalized and needs n > p.

    Stops when the gradient inf-norm drops below 1e-8; raises a
    diagnostics-carrying error when max_iter iterations run out.
    """
    n, p = x.shape
    if lam < 0:
        raise ConfigError("ridge lambda must be nonnegative")
    if lam == 0 and n <= p:
        raise ConfigError(
            "unpenalized fitting needs n > p; use the ridge penalty instead"
        )
    ridge = lam * n
    beta = np.zeros(p)
    objective, g, gprime = _evaluate(x, y, beta, link, lam)
    if not np.isfinite(objective):
        raise ObjectiveOverflowError("surrogate objective is non-finite")
    grad = x.T @ (g - y) + ridge * beta
    grad_norm = np.inf
    for it in range(1, max_iter + 1):
        if not np.all(np.isfinite(grad)):
            raise ObjectiveOverflowError("surrogate gradient is non-finite")
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < _TOL:
            return CoefFit(
                beta=beta,
                lam=lam,
                iterations=it - 1,
                grad_norm=grad_norm,
                converged=True,
            )
        direction = _newton_direction(x, gprime, ridge, grad)
        # Quadratic-phase acceptance: take the full step when it halves the
        # gradient without raising the objective beyond float resolution (an
        # Armijo test alone stalls below that resolution; the gradient test
        # alone cycles on a piecewise-linear link), else backtrack from it.
        candidate = beta + direction
        value, g, gprime = _evaluate(x, y, candidate, link, lam)
        cand_grad = x.T @ (g - y) + ridge * candidate
        if not (
            np.isfinite(value)
            and value <= objective + 1e-12 * max(1.0, abs(objective))
            and np.all(np.isfinite(cand_grad))
            and np.max(np.abs(cand_grad)) <= 0.5 * grad_norm
        ):
            slope = float(grad @ direction)
            step, halvings = 1.0, 0
            while not (np.isfinite(value) and value < objective + 1e-4 * step * slope):
                if halvings == _MAX_HALVINGS:
                    raise NonConvergenceError(
                        "line search failed to decrease the surrogate objective",
                        iterations=it,
                        grad_norm=grad_norm,
                        beta=beta,
                    )
                step *= 0.5
                halvings += 1
                candidate = beta + step * direction
                value, g, gprime = _evaluate(x, y, candidate, link, lam)
            cand_grad = x.T @ (g - y) + ridge * candidate
        beta, objective, grad = candidate, value, cand_grad
    raise NonConvergenceError(
        f"Newton did not converge in {max_iter} iterations "
        f"(gradient inf-norm {grad_norm:.3e})",
        iterations=max_iter,
        grad_norm=grad_norm,
        beta=beta,
    )
