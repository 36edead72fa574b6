"""Output checks of the benchmark, computed apart from the program.

Each check recomputes a quantity from the data with numpy alone, or tests a
property the method must have.  None compares against a stored copy of
earlier output.  A check returns None when it passes and a one-line reason
when it fails.
"""

import math

import numpy as np
from scipy.special import expit

#: Relative error allowed between the ridge pilot and a primal numpy solve.
RIDGE_RTOL = 1e-8
#: Allowed inf-norm of the refit's penalized surrogate gradient.  The solver
#: stops below 1e-8; a coordinate perturbed by 1e-3 moves it by >= 1e-3 * n lam.
STATIONARITY_TOL = 1e-6
#: Allowed inf-norm of the logistic MLE score.
SCORE_TOL = 1e-6
#: Pooled calibration of T_j = sqrt(p) (b_j - mu beta_j) / sigma.
T_MEAN_TOL = 0.15
T_VAR_RANGE = (0.8, 1.25)
COVERAGE_TOL = 0.03
#: Relative gap allowed between the refit's and the MLE's mean effective
#: variance, before the Monte Carlo allowance (see efficiency()).
EFFICIENCY_RTOL = 0.10
EFFICIENCY_SE = 3.0


def link_eval(grid, values, eps, t):
    """(g, g') of the piecewise-linear link through (grid, values).

    Linear interpolation inside the grid; beyond it, linear continuation
    with the end slopes floored at eps.  The derivative inside is the cell
    slope floored at eps.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    slopes = (values[1:] - values[:-1]) / (grid[1:] - grid[:-1])
    cell = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
    g = values[cell] + slopes[cell] * (t - grid[cell])
    gp = np.maximum(slopes[cell], eps)
    lo = t < grid[0]
    hi = t > grid[-1]
    lo_slope = max(slopes[0], eps)
    hi_slope = max(slopes[-1], eps)
    g = np.where(lo, values[0] + lo_slope * (t - grid[0]), g)
    g = np.where(hi, values[-1] + hi_slope * (t - grid[-1]), g)
    gp = np.where(lo, lo_slope, np.where(hi, hi_slope, gp))
    return g, gp


def ridge_pilot(x, y, lam, beta):
    """The ridge pilot must solve the primal system (X'X + n lam I) b = X'y."""
    n, p = x.shape
    a = x.T @ x + n * lam * np.eye(p)
    ref = np.linalg.solve(a, x.T @ y)
    err = float(np.max(np.abs(beta - ref)) / max(np.max(np.abs(ref)), 1e-300))
    if err > RIDGE_RTOL:
        return f"ridge pilot differs from the primal solve by {err:.3e} (relative)"
    return None


def stationarity(x, y, beta, grid, values, eps, lam):
    """The refit must zero X'(g(Xb) - y) + n lam b under the reported link."""
    g, _ = link_eval(grid, values, eps, x @ beta)
    grad = x.T @ (g - y) + x.shape[0] * lam * beta
    norm = float(np.max(np.abs(grad)))
    if not norm <= STATIONARITY_TOL:
        return f"refit gradient inf-norm {norm:.3e} exceeds {STATIONARITY_TOL:g}"
    return None


def logit_score(x, y, beta):
    """The logistic MLE pilot must zero its score X'(expit(Xb) - y)."""
    norm = float(np.max(np.abs(x.T @ (expit(x @ beta) - y))))
    if not norm <= SCORE_TOL:
        return f"logistic MLE score inf-norm {norm:.3e} exceeds {SCORE_TOL:g}"
    return None


def monotone(values):
    """A monotonized link must be nondecreasing on its grid."""
    drops = int(np.sum(np.diff(values) < 0))
    if drops:
        return f"link values decrease at {drops} grid steps"
    return None


def t_stats(beta_hat, mu_hat, sigma2_hat, beta):
    """T_j = sqrt(p) (b_j - mu beta_j) / sigma for unit coordinate scales."""
    return math.sqrt(len(beta)) * (beta_hat - mu_hat * beta) / math.sqrt(sigma2_hat)


def calibration(t_values, covered, alpha):
    """Pooled T must be near N(0, 1) and the intervals near 1 - alpha coverage."""
    t_values = np.asarray(t_values, dtype=float)
    covered = np.asarray(covered, dtype=float)
    mean, var, cov = float(t_values.mean()), float(t_values.var()), float(covered.mean())
    summary = {"t_mean": mean, "t_var": var, "coverage": cov, "values": int(t_values.size)}
    problems = []
    if abs(mean) > T_MEAN_TOL:
        problems.append(f"pooled T mean {mean:.3f}")
    if not T_VAR_RANGE[0] <= var <= T_VAR_RANGE[1]:
        problems.append(f"pooled T variance {var:.3f}")
    if abs(cov - (1.0 - alpha)) > COVERAGE_TOL:
        problems.append(f"coverage {cov:.3f}")
    return summary, ("; ".join(problems) or None)


def effective_variance(b, beta):
    """b'b / (b'beta) - 1, the efficiency statistic of an estimator b."""
    return float(b @ b) / float(b @ beta) - 1.0


def efficiency(refit, mle):
    """The refit's mean effective variance must be within 10% of the MLE's.

    The two are paired by dataset.  The per-dataset statistic is noisy (at
    n=2000, p=50 one dataset's value ranges over 0.0-0.7), so the allowed gap
    adds EFFICIENCY_SE standard errors of the mean paired difference.
    """
    refit = np.asarray(refit, dtype=float)
    mle = np.asarray(mle, dtype=float)
    diff = refit - mle
    se = float(diff.std(ddof=1) / math.sqrt(len(diff))) if len(diff) > 1 else math.inf
    allowed = EFFICIENCY_RTOL * float(mle.mean()) + EFFICIENCY_SE * se
    summary = {
        "refit_mean": float(refit.mean()),
        "mle_mean": float(mle.mean()),
        "diff_se": se,
        "datasets": int(len(diff)),
    }
    if abs(float(diff.mean())) > allowed:
        return summary, (
            f"refit mean effective variance {refit.mean():.4f} vs MLE "
            f"{mle.mean():.4f}: gap exceeds {allowed:.4f}"
        )
    return summary, None
