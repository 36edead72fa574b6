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
from scipy.linalg import LinAlgError

from ._linalg import Gram, cho_factor, cho_solve
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
    """Objective value, gradient and link derivative g'(x'b) of the
    penalized surrogate loss, from one evaluation of the working link; the
    Hessian is X' diag(g') X + n lam I.  The value is inf or nan on
    overflow."""
    value, g, gprime = _evaluate(x, y, b, link, lam)
    return value, _gradient(x, y, b, g, lam), gprime


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


def _gradient(x, y, b, g, lam):
    """Gradient of the objective at b, given the link values g there."""
    return x.T @ (g - y) + lam * x.shape[0] * b


def _newton_direction(x, w, ridge, grad, gram):
    """Solve (X'WX + ridge I) d = -grad, through the n-by-n Woodbury system
    on the dual path of gram, a Gram of x, which supplies and keeps the
    factor of the weighted Gram matrix.

    A singular Hessian (possible when the link derivative vanishes at the
    current iterate, e.g. a cubic link at the zero start) falls back to a
    diagonally jittered solve (rebuilt, as the factorization overwrites it);
    any positive shift still yields a descent direction for the line search.
    """
    dual = gram.dual(ridge)
    try:
        fac = gram.factor(w, ridge)
    except LinAlgError as err:
        if dual:
            raise SolverError(f"Newton system is singular: {err}") from err
        fac = _jittered_factor(gram, w, ridge, grad)
    if dual:
        s = np.sqrt(w)
        inner = cho_solve(fac, s * (x @ grad))
        return -(grad - x.T @ (s * inner)) / ridge
    return -cho_solve(fac, grad)


def _jittered_factor(gram, w, ridge, grad):
    """cho_factor of X'WX + (ridge + shift) I at the first of 11 growing
    shifts that makes it positive definite."""
    scale = np.trace(gram.weighted(w, ridge)) / len(grad)
    base = max(scale, float(np.linalg.norm(grad)), 1e-8)
    shift = 0.0
    for _ in range(11):
        shift = base * 1e-8 if shift == 0.0 else shift * 100.0
        try:
            return cho_factor(gram.weighted(w, ridge + shift))
        except LinAlgError:
            pass
    raise SolverError("Newton system stayed singular under diagonal shifts")


def fit_coefficients(
    x: np.ndarray,
    y: np.ndarray,
    link: WorkingLink,
    lam: float = 0.0,
    max_iter: int = 100,
    gram=None,
) -> CoefFit:
    """Minimize the surrogate loss sum G(x'b) - y x'b + n lam ||b||^2 / 2
    by damped Newton from zero.

    link.evaluate(t) gives (G, g, g') at the indices t, for the objective,
    the gradient and the Hessian.  lam is the per-sample ridge level: the
    penalty n lam ||b||^2 / 2 matches the convention of the ridge pilot and
    of the inferential adjustment traces (which regularize X'DX by n lam I).
    lam = 0 fits unpenalized and needs n > p.

    gram, a Gram of x, supplies every Newton system; pass the one that
    other solves on x share.  Without it a private one is built.

    Stops when the gradient inf-norm drops below 1e-8; raises a
    diagnostics-carrying error when max_iter iterations run out.
    """
    n, p = x.shape
    # Negated, so that nan fails it too.
    if not 0.0 <= lam < np.inf:
        raise ConfigError(f"ridge lambda must be finite and nonnegative, not {lam}")
    if lam == 0 and n <= p:
        raise ConfigError(
            "unpenalized fitting needs n > p; use the ridge penalty instead"
        )
    ridge = lam * n
    gram = Gram(x) if gram is None else gram
    beta = np.zeros(p)
    objective, grad, gprime = surrogate_objective(beta, x, y, link, lam)
    if not np.isfinite(objective):
        raise ObjectiveOverflowError("surrogate objective is non-finite")
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
        direction = _newton_direction(x, gprime, ridge, grad, gram)
        # Quadratic-phase acceptance: take the full step when it halves the
        # gradient without raising the objective beyond float resolution (an
        # Armijo test alone stalls below that resolution; the gradient test
        # alone cycles on a piecewise-linear link), else backtrack from it.
        # Halving trials take no gradient; the accepted one takes it after.
        candidate = beta + direction
        value, cand_grad, gprime = surrogate_objective(candidate, x, y, link, lam)
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
            if halvings:
                cand_grad = _gradient(x, y, candidate, g, lam)
        beta, objective, grad = candidate, value, cand_grad
    raise NonConvergenceError(
        f"Newton did not converge in {max_iter} iterations "
        f"(gradient inf-norm {grad_norm:.3e})",
        iterations=max_iter,
        grad_norm=grad_norm,
        beta=beta,
    )
