"""Inferential parameters, intervals, and oracles."""

import numpy as np
import pytest
from scipy.special import expit

from sindex._linalg import adjustment_trace
from sindex.errors import ConfigError, DegenerateError, RankError
from sindex.inference import (
    adjust_inferential,
    effective_variance_estimated,
    effective_variance_oracle,
    joint_transform,
    marginal_inference,
    oracle_params,
)
from sindex.models import EXP_LINK, IDENTITY_LINK, LOGISTIC_LINK
from sindex.pilot import fit_pilot

rng = np.random.default_rng(606)


def test_vhat_unit_weights_projection_trace():
    x = rng.standard_normal((50, 10))
    v = adjustment_trace(x, np.ones(50), 0.0) / 50
    assert v == pytest.approx(1 - 0.2, abs=1e-10)


def test_vhat_two_by_one_hand_trace():
    x = np.array([[1.0], [1.0]])
    assert adjustment_trace(x, np.ones(2), 0.0) / 2 == pytest.approx(0.5)


def test_vhat_large_lambda_limit():
    # n^{-1} tr(D - DX(X'DX + n lam I)^{-1}X'D) -> mean g'(X beta) as lam grows.
    x = rng.standard_normal((30, 6))
    beta = rng.normal(size=6)
    gprime = np.exp(0.2 * (x @ beta))
    v = adjustment_trace(x, gprime, 30 * 1e9) / 30
    assert v == pytest.approx(np.mean(gprime), rel=1e-4)


def test_vhat_rank_error_at_lambda_zero():
    x = rng.standard_normal((4, 6))
    with pytest.raises(RankError):
        adjust_inferential(x, np.ones(4), np.zeros(6), IDENTITY_LINK)


def test_adjust_exact_fit():
    x = rng.standard_normal((40, 5))
    beta = rng.normal(size=5)
    y = x @ beta  # identity link, zero residual
    mu, s2 = adjust_inferential(x, y, beta, IDENTITY_LINK, 0.5)
    assert s2 == 0.0
    assert mu == pytest.approx(np.linalg.norm(beta))


def test_censored_equals_uncensored_with_covering_window():
    x = rng.standard_normal((60, 8))
    beta = 0.3 * rng.normal(size=8)
    y = x @ beta + rng.standard_normal(60)
    z = x @ beta
    window = (z.min() - 1.0, z.max() + 1.0)
    plain = adjust_inferential(x, y, beta, IDENTITY_LINK)
    censored = adjust_inferential(x, y, beta, IDENTITY_LINK, window=window)
    assert plain == censored


def test_censored_window_validation():
    x = rng.standard_normal((10, 2))
    args = (x, np.ones(10), np.zeros(2), IDENTITY_LINK)
    with pytest.raises(ConfigError):
        adjust_inferential(*args, window=(1.0, 1.0))
    with pytest.raises(ConfigError):
        adjust_inferential(*args, 0.1, window=(-1.0, 1.0))
    with pytest.raises(ConfigError):
        adjust_inferential(*args, -0.1)


def test_unregularized_identity_reproduces_ls_pilot_adjustments():
    # Every pilot's adjustments are adjust_inferential's at its fitted beta,
    # with the pilot's canonical link and ridge level: exactly for the MLE
    # pilots, which take v from the same trace; to rounding for the ridge
    # pilot (v from its solve's factor) and ls (v = 1 - kappa).
    x = rng.standard_normal((80, 16))
    y = x @ rng.normal(size=16) + rng.standard_normal(80)
    gen = np.random.default_rng(607)
    t = x @ (0.3 * gen.normal(size=16))
    cases = [
        ("ls", None, y, IDENTITY_LINK, 1e-10),
        ("ridge", 0.5, y, IDENTITY_LINK, 1e-10),
        ("logit-mle", None, (gen.random(80) < expit(t)).astype(float), LOGISTIC_LINK, 0),
        ("pois-mle", None, gen.poisson(np.exp(t)).astype(float), EXP_LINK, 0),
    ]
    for kind, lam, yk, link, tol in cases:
        fit = fit_pilot(x, yk, kind, lam)
        mu, s2 = adjust_inferential(x, yk, fit.beta, link, lam or 0.0)
        assert abs(mu - fit.adjustments.mu) <= tol, kind
        assert abs(s2 - fit.adjustments.sigma2) <= tol, kind


def test_marginal_inference_null_and_centering():
    beta_hat = np.array([0.5, -0.2, 0.0])
    tau = np.ones(3)
    report = marginal_inference(
        beta_hat, 2.0, 0.25, tau, alpha=0.05, null_values=beta_hat / 2.0
    )
    assert np.allclose(report.t_stats, 0.0)
    assert np.allclose(report.p_values, 1.0)
    center = beta_hat / 2.0
    assert np.all(report.ci_lo <= center + 1e-12)
    assert np.all(center <= report.ci_hi + 1e-12)


def test_marginal_inference_reject_tests_the_null():
    beta_hat = np.array([5.0, -2.0, 0.0])
    report = marginal_inference(
        beta_hat, 2.0, 0.25, np.ones(3), null_values=beta_hat / 2.0
    )
    assert np.allclose(report.p_values, 1.0)
    assert not report.reject.any()


def test_marginal_inference_interval_width_and_rejection():
    p = 7
    beta_hat = rng.normal(size=p)
    tau = rng.uniform(0.5, 2.0, size=p)
    mu_hat, s2 = 1.3, 0.49
    report = marginal_inference(beta_hat, mu_hat, s2, tau, alpha=0.10)
    from scipy.special import ndtri

    z = ndtri(0.95)
    width = report.ci_hi - report.ci_lo
    assert np.allclose(width, 2 * z * np.sqrt(s2) / (np.sqrt(p) * tau * mu_hat))
    # test-interval consistency: reject H0: beta_j = 0 iff 0 lies outside CI
    outside = (report.ci_lo > 0) | (report.ci_hi < 0)
    assert np.array_equal(report.reject, outside)


def test_marginal_inference_validation():
    with pytest.raises(ConfigError):
        marginal_inference(np.ones(2), 1.0, 1.0, np.ones(2), alpha=1.5)
    with pytest.raises(DegenerateError):
        marginal_inference(np.ones(2), 1.0, 0.0, np.ones(2))
    with pytest.raises(ConfigError):
        marginal_inference(np.ones(2), 1.0, 1.0, np.ones(3))


def test_oracle_params_trivial_cases():
    beta = np.array([1.0, 0.0])
    assert oracle_params(beta, beta).mu == pytest.approx(1.0)
    assert oracle_params(beta, beta).sigma == pytest.approx(0.0)
    orth = np.array([0.0, 2.0])
    op = oracle_params(orth, beta)
    assert op.mu == pytest.approx(0.0)
    assert op.sigma == pytest.approx(2.0)


def test_oracle_params_hand_cholesky():
    sigma = np.diag([4.0, 1.0])
    op = oracle_params(np.array([0.5, 1.0]), np.array([0.5, 0.0]), sigma)
    assert op.mu == pytest.approx(1.0)
    assert op.sigma == pytest.approx(1.0)


def test_oracle_params_rotation_invariance():
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        beta = rng.normal(size=6)
        beta_hat = rng.normal(size=6)
        a = oracle_params(beta_hat, beta)
        b = oracle_params(q @ beta_hat, q @ beta)
        assert a.mu == pytest.approx(b.mu, abs=1e-10)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-10)


def test_effective_variance_forms():
    beta = rng.normal(size=5)
    beta /= np.linalg.norm(beta)
    assert effective_variance_oracle(beta, beta) == pytest.approx(0.0, abs=1e-12)
    assert effective_variance_oracle(2 * beta, beta) == pytest.approx(1.0)
    assert effective_variance_estimated(2.0, 1.0) == pytest.approx(0.25)
    with pytest.raises(DegenerateError):
        effective_variance_estimated(0.0, 1.0)


def test_joint_transform_whitens_precision_block():
    rng_local = np.random.default_rng(9)
    a = rng_local.standard_normal((8, 8))
    sigma = a @ a.T + 8 * np.eye(8)
    coords = [1, 4, 6]
    m = joint_transform(sigma, coords)
    theta = np.linalg.inv(sigma)
    block = theta[np.ix_(coords, coords)]
    assert np.allclose(m @ block @ m.T, np.eye(3), atol=1e-10)


@pytest.mark.parametrize(
    "coords", [[-1], [1, 1], [7], [1.5], [], [[1, 2]]],
    ids=["negative", "repeated", "past-p", "non-integer", "empty", "2-d"],
)
def test_joint_transform_rejects_bad_coordinates(coords):
    # A negative index would wrap, a repeat makes the block singular, one
    # past p would raise a bare IndexError, and 1.5 would be cut to 1.
    with pytest.raises(ConfigError, match="coordinates"):
        joint_transform(np.eye(4) + 0.1, coords)


def test_report_serialization():
    beta_hat = rng.normal(size=4)
    report = marginal_inference(beta_hat, 1.5, 0.6, np.ones(4), alpha=0.05)
    doc = report.to_dict()
    assert set(doc) >= {"mode", "alpha", "t_stats", "ci_lo", "ci_hi", "p_values"}
    assert np.all(np.array(doc["p_values"]) >= 0) and np.all(
        np.array(doc["p_values"]) <= 1
    )
    assert doc["beta_hat"] == beta_hat.tolist()


def test_adjustment_consistency_unregularized(adjustment_errors_unregularized):
    (mu_err, _), _ = adjustment_errors_unregularized
    assert mu_err < 0.08


def test_coverage_in_band(fig3_result):
    manifest, _, _ = fig3_result
    assert 0.91 <= manifest["summary"]["coverage"] <= 0.985
