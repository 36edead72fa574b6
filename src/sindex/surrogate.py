"""Surrogate-loss construction and coefficient fitting by damped Newton.

The loss for one observation is G(x'b) - y x'b where G' equals the working
link.  With the canonical GLM links it reduces to the negative log-likelihood;
with a gridded link estimate it stays convex because the derivative is
floored away from zero.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from ._linalg import weighted_gram
from .deconv import LinkEstimate, eval_link
from .errors import (
    ConfigError,
    NonConvergenceError,
    ObjectiveOverflowError,
    SolverError,
)
from .models import LinkFunction

PENALTIES = ("none", "ridge")


def build_antiderivative(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Antiderivative values at the grid nodes, zero at the left edge.

    The cumulative trapezoid rule is the exact integral of the
    piecewise-linear interpolant of (xs, vs).
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    return cumulative_trapezoid(vs, xs, initial=0.0)


class _GridLink:
    """Piecewise-linear link from a grid estimate with its exact integral."""

    def __init__(self, est: LinkEstimate):
        self.est = est
        self.xs = est.grid
        self.vs = est.values
        self.slopes = np.diff(est.values) / np.diff(est.grid)
        self.gvals = build_antiderivative(est.grid, est.values)
        self.lo_slope = max(self.slopes[0], est.deriv_floor)
        self.hi_slope = max(self.slopes[-1], est.deriv_floor)

    def g(self, t):
        return eval_link(self.est, t)[0]

    def gprime(self, t):
        return eval_link(self.est, t)[1]

    def antideriv(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xs, vs = self.xs, self.vs
        cell = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
        dx = t - xs[cell]
        out = self.gvals[cell] + vs[cell] * dx + 0.5 * self.slopes[cell] * dx * dx
        below = t < xs[0]
        above = t > xs[-1]
        dxb = t[below] - xs[0]
        out[below] = vs[0] * dxb + 0.5 * self.lo_slope * dxb * dxb
        dxa = t[above] - xs[-1]
        out[above] = (
            self.gvals[-1] + vs[-1] * dxa + 0.5 * self.hi_slope * dxa * dxa
        )
        return out


@dataclass(frozen=True)
class SurrogateProblem:
    """Working link (g, g'), its antiderivative, and the penalty.

    lam is the per-sample ridge level: the fitted objective carries
    n lam ||b||^2 / 2, matching the convention of the ridge pilot and of
    the inferential adjustment traces (which regularize X'DX by n lam I).
    """

    g: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]
    antideriv: Callable[[np.ndarray], np.ndarray]
    penalty: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ConfigError(f"penalty must be one of {PENALTIES}")
        if self.penalty == "ridge" and self.lam <= 0:
            raise ConfigError("ridge penalty needs lambda > 0")
        if self.penalty == "none" and self.lam != 0.0:
            raise ConfigError("penalty 'none' cannot carry a lambda")

    @classmethod
    def from_link_estimate(
        cls, est: LinkEstimate, penalty: str = "none", lam: float = 0.0
    ) -> "SurrogateProblem":
        grid_link = _GridLink(est)
        return cls(
            g=grid_link.g,
            gprime=grid_link.gprime,
            antideriv=grid_link.antideriv,
            penalty=penalty,
            lam=lam,
        )

    @classmethod
    def from_link_function(
        cls,
        link: LinkFunction,
        penalty: str = "none",
        lam: float = 0.0,
        window: tuple = (-30.0, 30.0),
        points: int = 6001,
    ) -> "SurrogateProblem":
        """Wrap a built-in link; falls back to a fine-grid antiderivative
        when no closed form is attached."""
        if link.antideriv is not None:
            return cls(
                g=link.value,
                gprime=link.deriv,
                antideriv=link.antideriv,
                penalty=penalty,
                lam=lam,
            )
        xs = np.linspace(window[0], window[1], points)
        gvals = build_antiderivative(xs, link.value(xs))

        def antideriv(t):
            return np.interp(t, xs, gvals)

        return cls(
            g=link.value,
            gprime=link.deriv,
            antideriv=antideriv,
            penalty=penalty,
            lam=lam,
        )


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 100
    max_halvings: int = 30


@dataclass(frozen=True)
class CoefFit:
    beta: np.ndarray
    penalty: str
    lam: float
    iterations: int
    grad_norm: float
    converged: bool


def surrogate_objective(
    b: np.ndarray, x: np.ndarray, y: np.ndarray, prob: SurrogateProblem
):
    """Objective value, gradient, and Hessian of the penalized surrogate loss."""
    t = x @ b
    value = _objective_value(t, b, y, prob)
    grad = x.T @ (prob.g(t) - y)
    ridge = prob.lam * x.shape[0] if prob.penalty == "ridge" else 0.0
    grad = grad + ridge * b
    hess = weighted_gram(x, prob.gprime(t), ridge)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ObjectiveOverflowError("surrogate gradient or Hessian is non-finite")
    return value, grad, hess


def _objective_value(t, b, y, prob, strict=True):
    with np.errstate(over="ignore"):
        value = float(np.sum(prob.antideriv(t)) - float(y @ t))
    if prob.penalty == "ridge":
        value += 0.5 * prob.lam * len(t) * float(b @ b)
    if strict and not np.isfinite(value):
        raise ObjectiveOverflowError("surrogate objective is non-finite")
    return value


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
    prob: SurrogateProblem,
    opts: Optional[FitOptions] = None,
) -> CoefFit:
    """Minimize the surrogate loss by damped Newton from zero.

    Stops when the gradient inf-norm drops below opts.tol; raises a
    diagnostics-carrying error when the iteration budget runs out.
    """
    opts = opts or FitOptions()
    n, p = x.shape
    if prob.penalty == "none" and n <= p:
        raise ConfigError(
            "unpenalized fitting needs n > p; use the ridge penalty instead"
        )
    ridge = prob.lam * n if prob.penalty == "ridge" else 0.0
    beta = np.zeros(p)

    def gradient(b, t):
        return x.T @ (prob.g(t) - y) + ridge * b

    t = x @ beta
    objective = _objective_value(t, beta, y, prob)
    grad = gradient(beta, t)
    grad_norm = np.inf
    for it in range(1, opts.max_iter + 1):
        if not np.all(np.isfinite(grad)):
            raise ObjectiveOverflowError("surrogate gradient is non-finite")
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < opts.tol:
            return CoefFit(
                beta=beta,
                penalty=prob.penalty,
                lam=prob.lam,
                iterations=it - 1,
                grad_norm=grad_norm,
                converged=True,
            )
        direction = _newton_direction(x, prob.gprime(t), ridge, grad)
        # Quadratic-phase acceptance: take the full step whenever it halves
        # the gradient; an Armijo test alone stalls once the objective
        # decrease drops below float resolution.  An accepted step carries
        # its index and gradient into the next iteration.
        candidate = beta + direction
        full_t = x @ candidate
        full_value = _objective_value(full_t, candidate, y, prob, strict=False)
        full_grad = gradient(candidate, full_t)
        if (
            np.isfinite(full_value)
            and np.all(np.isfinite(full_grad))
            and np.max(np.abs(full_grad)) <= 0.5 * grad_norm
        ):
            cand_value, t, grad = full_value, full_t, full_grad
        else:
            slope = float(grad @ direction)
            step = 1.0
            for _ in range(opts.max_halvings + 1):
                candidate = beta + step * direction
                t = x @ candidate
                cand_value = _objective_value(t, candidate, y, prob, strict=False)
                if np.isfinite(cand_value) and cand_value < objective + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                raise NonConvergenceError(
                    "line search failed to decrease the surrogate objective",
                    iterations=it,
                    grad_norm=grad_norm,
                    beta=beta,
                )
            grad = gradient(candidate, t)
        beta = candidate
        objective = cand_value
    raise NonConvergenceError(
        f"Newton did not converge in {opts.max_iter} iterations "
        f"(gradient inf-norm {grad_norm:.3e})",
        iterations=opts.max_iter,
        grad_norm=grad_norm,
        beta=beta,
    )
