"""Inferential parameters, intervals, oracles, and efficiency diagnostics."""

import numpy as np
import pytest

from sindex.errors import ConfigError, DegenerateError, RankError
from sindex.inference import (
    CensoredAdjustment,
    adjust_inferential,
    effective_variance_estimated,
    effective_variance_oracle,
    efficiency_condition_ridge,
    joint_transform,
    marginal_inference,
    oracle_params,
    vhat,
)
from sindex.models import (
    Dataset,
    DesignSpec,
    IDENTITY_LINK,
    LinkFunction,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.pilot import fit_pilot, least_squares_fit, pilot_adjustments

rng = np.random.default_rng(606)


def test_vhat_unit_weights_projection_trace():
    x = rng.standard_normal((50, 10))
    v = vhat(x, np.zeros(10), IDENTITY_LINK, lam=0.0)
    assert v == pytest.approx(1 - 0.2, abs=1e-10)


def test_vhat_two_by_one_hand_trace():
    x = np.array([[1.0], [1.0]])
    assert vhat(x, np.zeros(1), IDENTITY_LINK, lam=0.0) == pytest.approx(0.5)


def test_vhat_large_lambda_limit():
    x = rng.standard_normal((30, 6))
    beta = rng.normal(size=6)

    def gprime(t):
        return np.exp(0.2 * t)

    link = LinkFunction(
        "exp(t/5)", lambda t: 5 * gprime(t), gprime, lambda t: 25 * gprime(t)
    )
    v = vhat(x, beta, link, lam=1e9)
    direct = np.mean(gprime(x @ beta))
    assert v == pytest.approx(direct, rel=1e-4)


def test_vhat_rank_error_at_lambda_zero():
    x = rng.standard_normal((4, 6))
    with pytest.raises(RankError):
        vhat(x, np.zeros(6), IDENTITY_LINK, lam=0.0)


def test_adjust_exact_fit():
    x = rng.standard_normal((40, 5))
    beta = rng.normal(size=5)
    y = x @ beta  # identity link, zero residual
    mu, s2 = adjust_inferential(x, y, beta, IDENTITY_LINK, "ridge", lam=0.5)
    assert s2 == 0.0
    assert mu == pytest.approx(np.linalg.norm(beta))


def test_censored_equals_uncensored_with_covering_window():
    x = rng.standard_normal((60, 8))
    beta = 0.3 * rng.normal(size=8)
    y = x @ beta + rng.standard_normal(60)
    z = x @ beta
    window = CensoredAdjustment(z.min() - 1.0, z.max() + 1.0)
    plain = adjust_inferential(x, y, beta, IDENTITY_LINK, "unregularized")
    censored = adjust_inferential(x, y, beta, IDENTITY_LINK, "censored", censor=window)
    assert plain == censored


def test_censored_window_validation():
    with pytest.raises(ConfigError):
        CensoredAdjustment(1.0, 1.0)
    x = rng.standard_normal((10, 2))
    with pytest.raises(ConfigError):
        adjust_inferential(x, np.ones(10), np.zeros(2), IDENTITY_LINK, "censored")


def test_unregularized_identity_reproduces_ls_pilot_adjustments():
    # With the identity link the inferential estimators collapse to the
    # least-squares pilot formulas.
    x = rng.standard_normal((80, 16))
    y = x @ rng.normal(size=16) + rng.standard_normal(80)
    beta = least_squares_fit(x, y)
    adj = pilot_adjustments(beta, x, y, "ls")
    mu, s2 = adjust_inferential(x, y, beta, IDENTITY_LINK, "unregularized")
    assert mu == pytest.approx(adj.mu, abs=1e-10)
    assert s2 == pytest.approx(adj.sigma2, abs=1e-10)


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


def test_efficiency_condition_matches_direct_comparison():
    # Prop-style equivalence: the three-factor product exceeds one exactly
    # when the refit's estimated effective variance beats the pilot's
    # (equal split sizes).
    spec = DesignSpec.identity(30)
    model = model_lookup("cubic")
    checked = 0
    for ss in np.random.SeedSequence(77).spawn(25):
        s_beta, s_x, s_y, s_x2, s_y2 = ss.spawn(5)
        beta = sample_coefficients(30, "uniform-sphere", spec, s_beta)
        x1 = sample_design(120, spec, s_x)
        y1 = generate_responses(x1, beta, model, s_y)
        x2 = sample_design(120, spec, s_x2)
        y2 = generate_responses(x2, beta, model, s_y2)
        lam1, lam2 = 0.4, 0.2
        pilot = fit_pilot(x1, y1, "ridge", lam1)
        from sindex.surrogate import SurrogateProblem, fit_coefficients
        from sindex.models import CUBIC_LINK

        prob = SurrogateProblem(CUBIC_LINK, "ridge", lam2)
        fit = fit_coefficients(x2, y2, prob)
        v_hat = vhat(x2, fit.beta, CUBIC_LINK, lam=lam2)
        mu_hat, s2_hat = adjust_inferential(
            x2, y2, fit.beta, CUBIC_LINK, "ridge", lam=lam2
        )
        # skip instances where the absolute value in mu flips sign
        if fit.beta @ fit.beta <= s2_hat or pilot.beta @ pilot.beta <= pilot.adjustments.sigma2:
            continue
        lhs = efficiency_condition_ridge(
            fit.beta,
            v_hat,
            lam2,
            y2 - CUBIC_LINK.value(x2 @ fit.beta),
            pilot.beta,
            pilot.adjustments.v,
            lam1,
            y1 - x1 @ pilot.beta,
        )
        eff_hat = effective_variance_estimated(mu_hat, s2_hat)
        eff_tilde = effective_variance_estimated(
            pilot.adjustments.mu, pilot.adjustments.sigma2
        )
        assert (lhs > 1.0) == (eff_hat < eff_tilde)
        checked += 1
    assert checked >= 20


def test_joint_transform_whitens_precision_block():
    rng_local = np.random.default_rng(9)
    a = rng_local.standard_normal((8, 8))
    sigma = a @ a.T + 8 * np.eye(8)
    coords = [1, 4, 6]
    m = joint_transform(sigma, coords)
    theta = np.linalg.inv(sigma)
    block = theta[np.ix_(coords, coords)]
    assert np.allclose(m @ block @ m.T, np.eye(3), atol=1e-10)


def test_report_serialization(tmp_path):
    beta_hat = rng.normal(size=4)
    report = marginal_inference(beta_hat, 1.5, 0.6, np.ones(4), alpha=0.05)
    doc = report.to_dict()
    assert set(doc) >= {"mode", "alpha", "t_stats", "ci_lo", "ci_hi", "p_values"}
    assert np.all(np.array(doc["p_values"]) >= 0) and np.all(
        np.array(doc["p_values"]) <= 1
    )
    path = tmp_path / "inference.csv"
    report.to_csv(path)
    import csv

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["j", "beta_hat", "T", "ci_lo", "ci_hi", "p_value"]
    assert len(rows) == 5
    assert float(rows[1][1]) == beta_hat[0]


def test_adjustment_consistency_unregularized(adjustment_errors_unregularized):
    (mu_err, _), _ = adjustment_errors_unregularized
    assert mu_err < 0.08


def test_coverage_in_band(fig3_result):
    manifest, _, _ = fig3_result
    assert 0.91 <= manifest["summary"]["coverage"] <= 0.985
