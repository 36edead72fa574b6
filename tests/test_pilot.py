"""Pilot estimators and observable adjustments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from sindex.debias import debias_index
from sindex.deconv import DeconvConfig, estimate_link
from sindex.errors import (
    ConfigError,
    DegenerateError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
)
from sindex.experiments import _simulate
from sindex.inference import CensoredAdjustment
from sindex.models import DesignSpec, LinkFunction, generate_responses, model_lookup, sample_coefficients, sample_design
from sindex.pilot import (
    GLM_LINKS,
    fit_pilot,
    glm_mle_fit,
    least_squares_fit,
    observable_adjustments,
    pilot_adjustments,
    ridge_fit,
)
from sindex.surrogate import fit_coefficients, surrogate_objective

rng = np.random.default_rng(101)


def test_ridge_zero_response():
    x = rng.standard_normal((15, 4))
    assert np.allclose(ridge_fit(x, np.zeros(15), 0.5), 0.0)


def test_ridge_scalar_closed_form():
    beta = ridge_fit(np.array([[1.0]]), np.array([1.0]), 1.0)
    assert beta[0] == pytest.approx(0.5)


def test_ridge_matches_normal_equation_oracle():
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    lam = 0.7
    beta = ridge_fit(x, y, lam)
    oracle = np.linalg.solve(x.T @ x + 20 * lam * np.eye(5), x.T @ y)
    assert np.max(np.abs(beta - oracle)) < 1e-10


def test_ridge_dual_path_matches_primal():
    x = rng.standard_normal((8, 30))
    y = rng.standard_normal(8)
    beta = ridge_fit(x, y, 0.4)
    oracle = np.linalg.solve(x.T @ x + 8 * 0.4 * np.eye(30), x.T @ y)
    assert np.max(np.abs(beta - oracle)) < 1e-10


def test_ridge_rejects_nonpositive_lambda():
    with pytest.raises(ConfigError):
        ridge_fit(np.ones((3, 1)), np.ones(3), 0.0)


def test_least_squares_orthonormal_columns():
    q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
    y = rng.standard_normal(30)
    assert np.allclose(least_squares_fit(q, y), q.T @ y)


def test_least_squares_needs_n_gt_p():
    with pytest.raises(NonIdentifiableError):
        least_squares_fit(rng.standard_normal((4, 6)), rng.standard_normal(4))


def test_least_squares_rank_deficient():
    x = np.ones((10, 2))  # duplicated column
    with pytest.raises(NonIdentifiableError):
        least_squares_fit(x, rng.standard_normal(10))


def test_least_squares_matches_qr_oracle():
    x = rng.standard_normal((40, 7))
    y = rng.standard_normal(40)
    q, r = np.linalg.qr(x)
    oracle = np.linalg.solve(r, q.T @ y)
    assert np.max(np.abs(least_squares_fit(x, y) - oracle)) < 1e-10


def test_logistic_separation_raises():
    x = np.linspace(-2, 2, 30).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(float)
    with pytest.raises(NonexistenceError):
        glm_mle_fit(x, y, "logistic")


def test_poisson_intercept_only_closed_form():
    x = np.ones((50, 1))
    y = rng.poisson(3.0, size=50).astype(float)
    beta = glm_mle_fit(x, y, "poisson")
    assert beta[0] == pytest.approx(np.log(y.mean()), abs=1e-9)


def test_glm_stationarity_contract():
    x = rng.standard_normal((120, 5))
    t = x @ np.array([0.5, -0.2, 0.1, 0.0, 0.3])
    y = (rng.random(120) < 1 / (1 + np.exp(-t))).astype(float)
    beta = glm_mle_fit(x, y, "logistic")
    from scipy.special import expit

    grad = x.T @ (expit(x @ beta) - y)
    assert np.max(np.abs(grad)) < 1e-8


def _objective_path(x, y, link, lam, caps):
    """Objective at the fit returned under each iteration cap, and the last
    iterate."""
    path = []
    for cap in caps:
        try:
            beta = fit_coefficients(x, y, link, lam, max_iter=cap).beta
        except NonConvergenceError as err:
            beta = err.beta
        path.append(surrogate_objective(beta, x, y, link, lam)[0])
    return path, beta


def test_glm_objective_monotone_on_accepted_steps():
    # The Poisson MLE is the surrogate Newton fit with the canonical link;
    # rerunning it with growing iteration caps gives nonincreasing negative
    # log-likelihoods, and the uncapped fit is glm_mle_fit's answer.
    x = rng.standard_normal((100, 4))
    y = rng.poisson(np.exp(0.3 * x[:, 0])).astype(float)
    path, beta = _objective_path(x, y, GLM_LINKS["poisson"], 0.0, (1, 2, 3, 5, 8, 30))
    assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))
    assert np.array_equal(beta, glm_mle_fit(x, y, "poisson"))
    # The same on a gridded link: figure3's refit after a near-degenerate
    # ridge pilot, where full steps that halve the gradient but raise the
    # objective used to cycle from about iteration 32 on.
    x, y, _, _ = _simulate(
        "cloglog", 250, 500, "uniform-sphere", np.random.SeedSequence(1).spawn(300)[195]
    )
    index = debias_index(x, y, fit_pilot(x, y, "ridge", 1.0))
    link = estimate_link(index, y, DeconvConfig(bandwidth_mode="fixed", h=2.5))
    path, _ = _objective_path(x, y, link, 0.1, range(30, 41))
    assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))


def test_mle_pilot_needs_n_gt_p():
    # A numerical failure (exit code 3), not a configuration error.
    x = np.random.default_rng(7).standard_normal((6, 8))
    y = (x[:, 0] > 0).astype(float)
    with pytest.raises(NonIdentifiableError):
        fit_pilot(x, y, "logit-mle")
    with pytest.raises(NonIdentifiableError):
        glm_mle_fit(x, np.ones(6), "poisson")


def test_glm_family_validation():
    with pytest.raises(ConfigError):
        glm_mle_fit(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), "logistic")
    with pytest.raises(ConfigError):
        glm_mle_fit(np.ones((3, 1)), np.array([0.0, -1.0, 2.0]), "poisson")


def test_ridge_adjustments_hand_trace():
    x = np.array([[1.0]])
    y = np.array([1.0])
    beta = ridge_fit(x, y, 1.0)
    adj = pilot_adjustments(beta, x, y, "ridge", lam=1.0)
    assert adj.v == pytest.approx(0.5)
    assert adj.gamma == pytest.approx(2.0 / 3.0)


def test_ls_gamma_at_half_kappa():
    x = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    beta = least_squares_fit(x, y)
    adj = pilot_adjustments(beta, x, y, "ls")
    assert adj.kappa == pytest.approx(0.5)
    assert adj.gamma == pytest.approx(1.0)


def test_ridge_v_in_unit_interval_and_ridgeless_limit():
    x = rng.standard_normal((60, 12))
    y = rng.standard_normal(60)
    for lam in (1e-10, 0.1, 1.0, 100.0):
        beta = ridge_fit(x, y, lam)
        adj = pilot_adjustments(beta, x, y, "ridge", lam=lam)
        assert 0.0 < adj.v <= 1.0
    adj = pilot_adjustments(ridge_fit(x, y, 1e-10), x, y, "ridge", lam=1e-10)
    assert adj.v == pytest.approx(1 - 12 / 60, abs=1e-8)


def test_adjustments_nonnegative_for_every_kind():
    spec = DesignSpec.identity(8)
    x = sample_design(200, spec, seed=21)
    beta = sample_coefficients(8, "uniform-sphere", spec, seed=22)
    cases = [
        ("ridge", 0.5, generate_responses(x, beta, model_lookup("cubic"), 23)),
        ("ls", None, generate_responses(x, beta, model_lookup("piecewise"), 24)),
        ("logit-mle", None, generate_responses(x, beta, model_lookup("logit"), 25)),
        ("pois-mle", None, generate_responses(x, beta, model_lookup("poisson"), 26)),
    ]
    for kind, lam, y in cases:
        fit = fit_pilot(x, y, kind, lam)
        assert fit.adjustments.sigma2 >= 0
        assert fit.adjustments.mu >= 0


def test_fit_pilot_matches_standalone_ops():
    spec = DesignSpec.identity(6)
    x = sample_design(80, spec, seed=27)
    beta = sample_coefficients(6, "uniform-sphere", spec, seed=28)
    y = generate_responses(x, beta, model_lookup("cubic"), seed=29)
    fit = fit_pilot(x, y, "ridge", 0.3)
    assert np.allclose(fit.beta, ridge_fit(x, y, 0.3))
    adj = pilot_adjustments(fit.beta, x, y, "ridge", lam=0.3)
    assert fit.adjustments.v == pytest.approx(adj.v, abs=1e-10)
    assert fit.adjustments.sigma2 == pytest.approx(adj.sigma2, abs=1e-12)


def test_ls_kappa_one_degenerate():
    x = rng.standard_normal((5, 5))
    with pytest.raises(DegenerateError):
        pilot_adjustments(np.zeros(5), x, rng.standard_normal(5), "ls")


def test_pilot_mu_concentrates_on_oracle():
    # Sigma = I simulation: mu~ tracks beta' beta~ (200 replications).
    spec = DesignSpec.identity(200)
    model = model_lookup("cubic")
    devs = []
    for ss in np.random.SeedSequence(20240).spawn(200):
        s_beta, s_x, s_y = ss.spawn(3)
        beta = sample_coefficients(200, "uniform-sphere", spec, s_beta)
        x = sample_design(500, spec, s_x)
        y = generate_responses(x, beta, model, s_y)
        fit = fit_pilot(x, y, "ls")
        devs.append(abs(fit.adjustments.mu - beta @ fit.beta))
    assert np.mean(devs) < 0.1


def dense_v(x, weights, lam):
    """n^{-1} tr(D - DX(X'DX + n lam I)^{-1}X'D) by a dense inverse."""
    n, p = x.shape
    d = np.diag(weights)
    inner = np.linalg.inv(x.T @ d @ x + n * lam * np.eye(p))
    return np.trace(d - d @ x @ inner @ x.T @ d) / n


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("ridge", "ls", "logit-mle", "pois-mle", "censored")),
    n=st.integers(20, 40),
    kappa=st.floats(0.1, 0.6),
    lam=st.floats(0.05, 2.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_observable_adjustments_match_written_out_formulas(kind, n, kappa, lam, seed):
    # The pilots' and the censored refit's adjustments, each against its
    # own formula with v from a dense inverse.
    gen = np.random.default_rng(seed)
    p = max(1, int(kappa * n))
    kappa = p / n
    x = gen.standard_normal((n, p))
    b = gen.standard_normal(p) / np.sqrt(p)
    xb = x @ b
    if kind == "ridge":
        y = xb + gen.standard_normal(n)
        adj = pilot_adjustments(b, x, y, "ridge", lam=lam)
        v = dense_v(x, np.ones(n), lam)
        gamma = kappa / (v + lam)
        sigma2 = kappa * np.sum((y - xb) ** 2) / (n * (v + lam) ** 2)
        terms = (b @ b, sigma2)
    elif kind == "ls":
        y = xb + gen.standard_normal(n)
        adj = pilot_adjustments(b, x, y, "ls")
        v = dense_v(x, np.ones(n), 0.0)  # 1 - kappa
        gamma = kappa / (1 - kappa)
        sigma2 = gamma * np.sum((y - xb) ** 2) / (n * (1 - kappa))
        terms = (xb @ xb / n, (1 - kappa) * sigma2)
    elif kind in ("logit-mle", "pois-mle"):
        if kind == "logit-mle":
            mean, weights = expit(xb), expit(xb) * (1 - expit(xb))
            y = (gen.random(n) < mean).astype(float)
        else:
            mean = weights = np.exp(xb)
            y = gen.poisson(mean).astype(float)
        adj = pilot_adjustments(b, x, y, kind)
        v = dense_v(x, weights, 0.0)
        gamma = kappa / v
        sigma2 = kappa * np.sum((y - mean) ** 2) / (n * v ** 2)
        terms = (xb @ xb / n, (1 - kappa) * sigma2)
    else:
        y = np.exp(0.5 * xb) + gen.standard_normal(n)
        window = CensoredAdjustment(-0.5, 0.5)
        z = np.clip(xb, -0.5, 0.5)
        v = dense_v(x, 0.5 * np.exp(0.5 * z), 0.0)
        link = LinkFunction(
            "exp(t/2)",
            lambda t: np.exp(0.5 * t),
            lambda t: 0.5 * np.exp(0.5 * t),
            lambda t: 2.0 * np.exp(0.5 * t),
        )
        adj = observable_adjustments(x, y, b, link, v, censor=window)
        gamma = kappa / v
        sigma2 = kappa * np.sum((y - np.exp(0.5 * z)) ** 2) / (n * v ** 2)
        terms = (z @ z / n, (1 - kappa) * sigma2)
    assert adj.kappa == kappa
    assert adj.v == pytest.approx(v, rel=1e-10)
    assert adj.gamma == pytest.approx(gamma, rel=1e-10)
    assert adj.sigma2 == pytest.approx(sigma2, rel=1e-10)
    # mu^2 is |difference of the two terms|, which may cancel.
    assert abs(adj.mu ** 2 - abs(terms[0] - terms[1])) <= 1e-10 * sum(terms)
