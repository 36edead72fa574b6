"""Surrogate loss and coefficient fitting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid
from scipy.special import expit

from sindex.deconv import DeconvConfig, IndexEstimate, build_antiderivative, estimate_link
from sindex.errors import (
    ConfigError,
    NonConvergenceError,
    ObjectiveOverflowError,
    SolverError,
)
from sindex.models import (
    CLOGLOG_LINK,
    CUBIC_LINK,
    DesignSpec,
    IDENTITY_LINK,
    LOGISTIC_LINK,
    LinkFunction,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.surrogate import fit_coefficients, surrogate_objective

rng = np.random.default_rng(404)


def test_antiderivative_constant_integrand():
    xs = np.linspace(-3, 3, 61)
    g = build_antiderivative(xs, np.ones(61))
    assert np.allclose(g, xs - xs[0])


def test_antiderivative_linear_integrand_exact():
    xs = np.linspace(-2, 2, 41)
    g = build_antiderivative(xs, xs)
    assert np.allclose(g, xs ** 2 / 2 - xs[0] ** 2 / 2, atol=1e-12)
    # central differences reproduce a linear integrand at interior nodes
    fd = (g[2:] - g[:-2]) / (xs[2:] - xs[:-2])
    assert np.max(np.abs(fd - xs[1:-1])) < 1e-10


def test_antiderivative_trapezoid_consistency():
    xs = np.linspace(-1, 4, 37)
    vs = rng.standard_normal(37)
    g = build_antiderivative(xs, vs)
    forward = np.diff(g) / np.diff(xs)
    midpoint = 0.5 * (vs[1:] + vs[:-1])
    assert np.max(np.abs(forward - midpoint)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.integers(2, 600).flatmap(
        lambda m: st.tuples(
            arrays(np.float64, m - 1, elements=st.floats(1e-6, 1e2)),
            arrays(np.float64, m, elements=st.floats(-1e6, 1e6)),
        )
    ),
)
def test_antiderivative_is_bit_identical_to_scipy(start, steps_and_values):
    steps, vs = steps_and_values
    xs = start + np.concatenate(([0.0], np.cumsum(steps)))
    assume(np.all(np.diff(xs) > 0))
    assert np.array_equal(
        build_antiderivative(xs, vs), cumulative_trapezoid(vs, xs, initial=0.0)
    )


def test_objective_linear_case_gradient():
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    b = rng.normal(size=4)
    _, grad, _ = surrogate_objective(b, x, y, IDENTITY_LINK)
    assert np.allclose(grad, x.T @ (x @ b - y), atol=1e-10)


@pytest.mark.parametrize("lam", [0.0, 0.3], ids=["none-0.0", "ridge-0.3"])
def test_objective_gradient_matches_finite_differences(lam):
    x = rng.standard_normal((25, 5))
    y = (rng.random(25) < 0.5).astype(float)
    b = 0.3 * rng.normal(size=5)
    _, grad, _ = surrogate_objective(b, x, y, LOGISTIC_LINK, lam)
    eps = 1e-6
    fd = np.zeros(5)
    for j in range(5):
        step = np.zeros(5)
        step[j] = eps
        vp, _, _ = surrogate_objective(b + step, x, y, LOGISTIC_LINK, lam)
        vm, _, _ = surrogate_objective(b - step, x, y, LOGISTIC_LINK, lam)
        fd[j] = (vp - vm) / (2 * eps)
    assert np.max(np.abs(fd - grad)) / np.max(np.abs(grad)) < 1e-5


def test_objective_hessian_psd():
    x = rng.standard_normal((40, 6))
    y = rng.standard_normal(40)
    w = rng.standard_normal(300)
    est = IndexEstimate(w=w, varsigma2=0.02)
    link = estimate_link(est, np.tanh(w), DeconvConfig(bandwidth_mode="fixed", h=0.4))
    _, _, gprime = surrogate_objective(rng.normal(size=6), x, y, link)
    hess = x.T @ (gprime[:, None] * x)
    assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10


def test_full_step_fit_evaluates_the_link_once_per_iterate():
    # The start and every accepted full step each take one link evaluation,
    # which gives the objective, the gradient and the next Newton system.
    calls = []

    def evaluate(t):
        calls.append(len(t))
        return LOGISTIC_LINK.evaluate(t)

    link = LinkFunction("logistic", evaluate)
    x = rng.standard_normal((200, 5))
    y = (rng.random(200) < expit(x @ (0.3 * rng.normal(size=5)))).astype(float)
    fit = fit_coefficients(x, y, link)
    assert fit.converged and fit.iterations >= 3
    assert len(calls) == fit.iterations + 1
    plain = fit_coefficients(x, y, LOGISTIC_LINK)
    assert np.array_equal(fit.beta, plain.beta)


def test_identity_link_equals_least_squares():
    x = rng.standard_normal((60, 8))
    y = x @ rng.normal(size=8) + 0.4 * rng.standard_normal(60)
    fit = fit_coefficients(x, y, IDENTITY_LINK)
    oracle = np.linalg.lstsq(x, y, rcond=None)[0]
    assert np.max(np.abs(fit.beta - oracle)) < 1e-8
    assert fit.converged


def irls_logistic(x, y, tol=1e-12, iters=100):
    """Independent IRLS oracle for the logistic MLE."""
    b = np.zeros(x.shape[1])
    for _ in range(iters):
        eta = x @ b
        mu = expit(eta)
        w = np.maximum(mu * (1 - mu), 1e-12)
        z = eta + (y - mu) / w
        b_new = np.linalg.solve(x.T @ (w[:, None] * x), x.T @ (w * z))
        if np.max(np.abs(b_new - b)) < tol:
            return b_new
        b = b_new
    return b


def test_logistic_link_equals_mle_via_irls():
    x = rng.standard_normal((150, 6))
    t = x @ (0.4 * rng.normal(size=6))
    y = (rng.random(150) < expit(t)).astype(float)
    fit = fit_coefficients(x, y, LOGISTIC_LINK)
    assert np.max(np.abs(fit.beta - irls_logistic(x, y))) < 1e-6


def test_huge_ridge_shrinks_to_zero():
    x = rng.standard_normal((50, 5))
    y = rng.standard_normal(50)
    fit = fit_coefficients(x, y, IDENTITY_LINK, 1e6)
    assert np.linalg.norm(fit.beta) < 1e-3


def test_unpenalized_needs_n_gt_p():
    with pytest.raises(ConfigError):
        fit_coefficients(
            rng.standard_normal((5, 9)),
            rng.standard_normal(5),
            IDENTITY_LINK,
        )


def test_penalty_validation():
    # Its own generator: the module-level stream stays as later tests expect.
    local = np.random.default_rng(405)
    x, y = local.standard_normal((20, 3)), local.standard_normal(20)
    with pytest.raises(ConfigError):
        fit_coefficients(x, y, IDENTITY_LINK, -0.1)
    with pytest.raises(ConfigError):
        fit_coefficients(x[:3], y[:3], IDENTITY_LINK, 0.0)
    with pytest.raises(ConfigError):
        fit_coefficients(x[:2], y[:2], IDENTITY_LINK, 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_penalty_must_be_finite(lam):
    # nan fails every comparison, so only a negated range test refuses it
    # before the solver; an infinite lambda gives no objective to minimize.
    local = np.random.default_rng(406)
    x, y = local.standard_normal((20, 3)), local.standard_normal(20)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        fit_coefficients(x, y, IDENTITY_LINK, lam)


def _failing_fit(case):
    """fit_coefficients on data and a link that make it fail as case names."""
    local = np.random.default_rng(407)
    x, y = local.standard_normal((20, 2)), local.standard_normal(20)
    if case == "max-iter":
        y = (x[:, 0] + local.standard_normal(20) > 0).astype(float)
        return fit_coefficients(x, y, LOGISTIC_LINK, max_iter=1)
    if case == "inf-in-x":
        x[3, 1] = np.inf
        return fit_coefficients(x, y, IDENTITY_LINK)
    if case == "inf-gradient":
        link = LinkFunction("inf-g", lambda t: (0.5 * t * t, t + np.inf, np.ones_like(t)))
        return fit_coefficients(x, y, link)
    if case == "no-descent":
        # G = 1e9 |t| rises along every direction that g = t - 1 proposes.
        link = LinkFunction("kinked", lambda t: (1e9 * np.abs(t), t - 1.0, np.ones_like(t)))
        return fit_coefficients(x, y, link)
    # Equal rows with p > n: S S' + ridge I has rank one plus a ridge that
    # vanishes beside it in rounding.
    x = np.tile(local.standard_normal(8), (3, 1))
    link = LinkFunction("quadratic", lambda t: (0.5 * t * t, t, np.ones_like(t)))
    return fit_coefficients(x, y[:3], link, lam=1e-300)


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("max-iter", NonConvergenceError, "did not converge in 1 iterations"),
        ("inf-in-x", ObjectiveOverflowError, "objective is non-finite"),
        ("inf-gradient", ObjectiveOverflowError, "gradient is non-finite"),
        ("no-descent", NonConvergenceError, "line search failed"),
        ("singular-dual", SolverError, "Newton system is singular"),
    ],
)
def test_fit_coefficients_failures(case, error, message):
    with pytest.raises(error, match=message) as info, np.errstate(invalid="ignore"):
        _failing_fit(case)
    if error is NonConvergenceError:
        assert info.value.iterations == 1


def test_row_permutation_invariance():
    x = rng.standard_normal((80, 5))
    t = x @ (0.5 * rng.normal(size=5))
    y = (rng.random(80) < expit(t)).astype(float)
    fit = fit_coefficients(x, y, LOGISTIC_LINK)
    perm = rng.permutation(80)
    fit_p = fit_coefficients(x[perm], y[perm], LOGISTIC_LINK)
    assert np.max(np.abs(fit.beta - fit_p.beta)) < 1e-8


def test_objective_decreases_along_newton_path():
    # convexity: rerunning with growing iteration caps gives
    # nonincreasing objective values
    x = rng.standard_normal((60, 4))
    y = rng.poisson(np.exp(0.4 * x[:, 0])).astype(float)
    link = model_lookup("poisson").link
    values = []
    for cap in (1, 2, 3, 5, 8):
        try:
            fit = fit_coefficients(x, y, link, 0.05, max_iter=cap)
            beta = fit.beta
        except Exception as err:  # NonConvergenceError carries the iterate
            beta = err.beta
        v, _, _ = surrogate_objective(beta, x, y, link, 0.05)
        values.append(v)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_grid_link_fit_aligns_with_true_link_fit():
    # direction check; the scale agreement is exercised statistically by the
    # acceptance efficiency table
    spec = DesignSpec.identity(6)
    beta = sample_coefficients(6, "uniform-sphere", spec, seed=31)
    x = sample_design(2000, spec, seed=32)
    y = generate_responses(x, beta, model_lookup("cloglog"), seed=33)
    w = x @ beta
    link = estimate_link(
        IndexEstimate(w=w, varsigma2=0.0),
        y,
        DeconvConfig(bandwidth_mode="fixed", h=0.25),
    )
    fit_grid = fit_coefficients(x, y, link)
    fit_true = fit_coefficients(x, y, CLOGLOG_LINK)
    cos = fit_grid.beta @ fit_true.beta / (
        np.linalg.norm(fit_grid.beta) * np.linalg.norm(fit_true.beta)
    )
    assert cos > 0.95


def test_population_recovery_with_true_link():
    # matching-loss property: fitting with the true link on a large sample
    # recovers beta up to the proportional-regime scale factor
    spec = DesignSpec.identity(40)
    beta = sample_coefficients(40, "uniform-sphere", spec, seed=41)
    x = sample_design(8000, spec, seed=42)
    y = generate_responses(x, beta, model_lookup("cubic"), seed=43)
    fit = fit_coefficients(x, y, CUBIC_LINK)
    mu_n = beta @ fit.beta
    assert np.linalg.norm(fit.beta / mu_n - beta) < 0.1
