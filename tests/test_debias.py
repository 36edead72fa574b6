"""Debiased index estimator."""

import numpy as np
import pytest
from scipy.special import expit

from sindex.deconv import IndexEstimate
from sindex.errors import DegenerateError
from sindex.pilot import Adjustments, PilotFit, debias_index, fit_pilot, index_zscores

rng = np.random.default_rng(55)


def _fit(x, y, beta, gamma=1.0, mu=2.0, sigma2=1.0):
    """A ridge pilot b = beta on (x, y) with the given adjustments: its
    indices X b and its score residual y - X b under the identity link."""
    beta = np.asarray(beta, dtype=float)
    adj = Adjustments(v=0.5, gamma=gamma, mu=mu, sigma2=sigma2, kappa=0.5)
    z = x @ beta
    return PilotFit(
        beta=beta, kind="ridge", lam=1.0, adjustments=adj, indices=z, score=y - z
    )


def test_hand_trace():
    x = np.array([[1.0], [0.0]])
    y = np.array([2.0, 1.0])
    est = debias_index(_fit(x, y, [1.0]))
    assert np.allclose(est.w, [0.0, -0.5])
    assert est.varsigma2 == pytest.approx(0.25)


def test_zero_gamma_gives_scaled_index():
    x = rng.standard_normal((20, 3))
    beta = rng.normal(size=3)
    est = debias_index(_fit(x, rng.standard_normal(20), beta, gamma=0.0))
    assert np.allclose(est.w, x @ beta / 2.0)


def test_exact_fit_gives_scaled_index():
    x = rng.standard_normal((20, 3))
    beta = rng.normal(size=3)
    y = x @ beta
    est = debias_index(_fit(x, y, beta))
    assert np.allclose(est.w, y / 2.0)


def test_linearity_in_response():
    x = rng.standard_normal((15, 4))
    beta = rng.normal(size=4)
    y1 = rng.standard_normal(15)
    y2 = rng.standard_normal(15)

    def w(y):
        return debias_index(_fit(x, y, beta, gamma=0.7)).w

    assert np.allclose(w(y1 + y2), w(y1) + w(y2) - w(np.zeros(15)), atol=1e-12)


def test_degenerate_mu_raises():
    with pytest.raises(DegenerateError):
        debias_index(_fit(np.ones((2, 1)), np.ones(2), [1.0], mu=0.0))


@pytest.mark.parametrize(
    "mu,sigma2", [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)]
)
def test_non_finite_adjustments_raise(mu, sigma2):
    # Unrefused, a nan mu would give an all-nan index that fails only later,
    # in the link stage.
    with pytest.raises(DegenerateError):
        debias_index(_fit(np.ones((2, 1)), np.ones(2), [1.0], mu=mu, sigma2=sigma2))


def test_zscores_zero_when_index_exact():
    x = rng.standard_normal((10, 2))
    beta = rng.normal(size=2)
    fit = _fit(x, x @ beta, beta)
    est = debias_index(fit)
    # force W == X beta by construction
    est = type(est)(w=x @ beta, varsigma2=est.varsigma2)
    assert np.allclose(index_zscores(est, x, beta, fit), 0.0)


def _zscores_at(sigma2):
    x = np.ones((2, 1))
    fit = _fit(x, np.ones(2), [1.0], sigma2=sigma2)
    return index_zscores(IndexEstimate(w=np.ones(2), varsigma2=1.0), x, np.ones(1), fit)


def test_zscores_degenerate_sigma():
    with pytest.raises(DegenerateError):
        _zscores_at(0.0)


@pytest.mark.parametrize("sigma2", [np.nan, np.inf])
def test_zscores_refuse_non_finite_sigma(sigma2):
    # Unrefused, a nan sigma^2 would give nan z-scores without an error.
    with pytest.raises(DegenerateError):
        _zscores_at(sigma2)


def test_mle_pilot_uses_score_residual():
    # The MLE pilot's score residual is that of its own loss, y - g(X b)
    # with the canonical mean g, so the index uses it rather than y - X b.
    x = rng.standard_normal((120, 3))
    y = (rng.random(120) < expit(x @ rng.normal(size=3))).astype(float)
    fit = fit_pilot(x, y, "logit-mle")
    xb = x @ fit.beta
    assert np.array_equal(fit.indices, xb)
    assert np.allclose(fit.score, y - expit(xb), rtol=0.0, atol=1e-15)
    adj = fit.adjustments
    expected = (xb - adj.gamma * (y - expit(xb))) / adj.mu
    assert np.allclose(debias_index(fit).w, expected)


def test_pooled_zscores_normal(fig1_result):
    manifest, _, _ = fig1_result
    stats = manifest["summary"]["cubic"]
    assert stats["ks_distance"] < 0.08
    assert 0.8 <= stats["variance"] <= 1.2
