"""Pilot estimators and observable adjustments."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

from sindex._linalg import adjustment_trace
from sindex.deconv import DeconvConfig, estimate_link
from sindex.errors import (
    ConfigError,
    DegenerateError,
    NonConvergenceError,
    NonexistenceError,
    NonIdentifiableError,
    SolverError,
)
from sindex.experiments import _simulate
from sindex.inference import adjust_inferential
from sindex.models import LOGISTIC_LINK, DesignSpec, LinkFunction, generate_responses, model_lookup, sample_coefficients, sample_design
from sindex import pilot
from sindex.pilot import (
    GLM_LINKS,
    MLE_FAMILY,
    PILOT_KINDS,
    PILOT_LINKS,
    debias_index,
    fit_pilot,
    glm_mle_fit,
    least_squares_fit,
    observable_adjustments,
)
from sindex.surrogate import fit_coefficients, surrogate_objective

rng = np.random.default_rng(101)


def test_ridge_zero_response():
    x = rng.standard_normal((15, 4))
    assert np.allclose(fit_pilot(x, np.zeros(15), "ridge", 0.5).beta, 0.0)


def test_ridge_scalar_closed_form():
    beta = fit_pilot(np.array([[1.0]]), np.array([1.0]), "ridge", 1.0).beta
    assert beta[0] == pytest.approx(0.5)


def test_ridge_matches_normal_equation_oracle():
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    lam = 0.7
    beta = fit_pilot(x, y, "ridge", lam).beta
    oracle = np.linalg.solve(x.T @ x + 20 * lam * np.eye(5), x.T @ y)
    assert np.max(np.abs(beta - oracle)) < 1e-10


def test_ridge_dual_path_matches_primal():
    x = rng.standard_normal((8, 30))
    y = rng.standard_normal(8)
    beta = fit_pilot(x, y, "ridge", 0.4).beta
    oracle = np.linalg.solve(x.T @ x + 8 * 0.4 * np.eye(30), x.T @ y)
    assert np.max(np.abs(beta - oracle)) < 1e-10


def test_ridge_rejects_nonpositive_lambda():
    with pytest.raises(ConfigError):
        fit_pilot(np.ones((3, 1)), np.ones(3), "ridge", 0.0)


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
    index = debias_index(fit_pilot(x, y, "ridge", 1.0))
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


@pytest.mark.parametrize(
    "norm, error", [(2e6, NonexistenceError), (1.0, NonConvergenceError)]
)
def test_mle_nonconvergence_is_reraised_unless_the_iterate_diverged(
    monkeypatch, norm, error
):
    # A Newton fit that runs out of iterations far out means no maximizer;
    # near the origin it is passed on as it was raised.
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((30, 2)), rng.poisson(1.0, 30).astype(float)
    beta = np.array([norm, 0.0])
    failure = NonConvergenceError("stalled", iterations=3, grad_norm=1.0, beta=beta)

    def stalled(*_args, **_kwargs):
        raise failure

    monkeypatch.setattr(pilot, "fit_coefficients", stalled)
    with pytest.raises(error) as info:
        glm_mle_fit(x, y, "poisson")
    assert (info.value is failure) == (error is NonConvergenceError)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda x, y: glm_mle_fit(x, y, "probit"), ConfigError, "unknown GLM family 'probit'"),
        # Three equal columns and a ridge lost to rounding beside X'X.
        (
            lambda x, y: fit_pilot(np.tile(x[:, :1], 3), y, "ridge", 1e-300),
            SolverError,
            "ridge system could not be factorized",
        ),
    ],
    ids=["probit", "singular-ridge"],
)
def test_pilot_fit_failures(call, error, message):
    rng = np.random.default_rng(9)
    with pytest.raises(error, match=message):
        call(rng.standard_normal((10, 2)), rng.integers(0, 2, 10).astype(float))


@pytest.mark.parametrize("lam", [1e300, 1e-300])
def test_extreme_ridge_lambda_is_degenerate(lam):
    # n (v + lambda)^2 overflows at 1e300 and underflows to 0 at 1e-300,
    # with p > n so that v is of the order of lambda.
    x, y, _, _ = _simulate("cubic", 50, 100, "uniform-sphere", np.random.SeedSequence(4))
    with pytest.raises(DegenerateError, match=r"n \(v \+ lambda\)\^2 = (inf|0\.0)"):
        fit_pilot(x, y, "ridge", lam)


def test_ridge_adjustments_hand_trace():
    adj = fit_pilot(np.array([[1.0]]), np.array([1.0]), "ridge", 1.0).adjustments
    assert adj.v == pytest.approx(0.5)
    assert adj.gamma == pytest.approx(2.0 / 3.0)


def test_ls_gamma_at_half_kappa():
    x = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    adj = fit_pilot(x, y, "ls").adjustments
    assert adj.kappa == pytest.approx(0.5)
    assert adj.gamma == pytest.approx(1.0)


def test_ridge_v_in_unit_interval_and_ridgeless_limit():
    x = rng.standard_normal((60, 12))
    y = rng.standard_normal(60)
    for lam in (1e-10, 0.1, 1.0, 100.0):
        adj = fit_pilot(x, y, "ridge", lam).adjustments
        assert 0.0 < adj.v <= 1.0
    adj = fit_pilot(x, y, "ridge", 1e-10).adjustments
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
    assert np.allclose(fit.beta, np.linalg.solve(x.T @ x + 80 * 0.3 * np.eye(6), x.T @ y))
    # v from the solve's factor against v from the standalone trace.
    z = x @ fit.beta
    v = adjustment_trace(x, np.ones(80), 80 * 0.3) / 80
    adj = observable_adjustments(y, fit.beta, z, z, v, 0.3)
    assert fit.adjustments.v == pytest.approx(adj.v, abs=1e-10)
    assert fit.adjustments.sigma2 == pytest.approx(adj.sigma2, abs=1e-12)


def test_ls_kappa_one_degenerate(monkeypatch):
    # least_squares_fit refuses n = p; past it, v = 1 - kappa = 0.
    monkeypatch.setattr("sindex.pilot.least_squares_fit", lambda x, y: np.zeros(5))
    with pytest.raises(DegenerateError):
        fit_pilot(rng.standard_normal((5, 5)), rng.standard_normal(5), "ls")


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


def fit_or_reject(x, y, kind, lam=None):
    """fit_pilot, with the draws rejected whose MLE does not exist: the data
    separate, the Newton iterate diverges, or it runs off along a ray (some
    index beyond 30 in absolute value) before either shows."""
    try:
        fit = fit_pilot(x, y, kind, lam)
    except (NonexistenceError, NonConvergenceError, DegenerateError):
        assume(kind not in MLE_FAMILY)
        raise
    assume(kind not in MLE_FAMILY or np.max(np.abs(x @ fit.beta)) < 30)
    return fit


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("ridge", "ls", "logit-mle", "pois-mle", "censored")),
    n=st.integers(20, 40),
    kappa=st.floats(0.1, 0.6),
    lam=st.floats(0.05, 2.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_observable_adjustments_match_written_out_formulas(kind, n, kappa, lam, seed):
    # Each pilot's adjustments at its fit, and the censored refit's, against
    # the written-out formulas with v from a dense inverse.
    gen = np.random.default_rng(seed)
    p = max(1, int(kappa * n))
    kappa = p / n
    x = gen.standard_normal((n, p))
    b = gen.standard_normal(p) / np.sqrt(p)
    xb = x @ b
    if kind == "censored":
        y = np.exp(0.5 * xb) + gen.standard_normal(n)
        z, lam = np.clip(xb, -0.5, 0.5), 0.0
        mean, weights = np.exp(0.5 * z), 0.5 * np.exp(0.5 * z)
        def half_exp(t):
            e = np.exp(0.5 * t)
            return 2.0 * e, e, 0.5 * e

        link = LinkFunction("exp(t/2)", half_exp)
        _, value, deriv = link.evaluate(z)
        adj = observable_adjustments(
            y, b, z, value, adjustment_trace(x, deriv, 0.0) / n
        )
        refit = adjust_inferential(x, y, b, link, window=(-0.5, 0.5))
        assert refit == (adj.mu, adj.sigma2)
    else:
        if kind == "logit-mle":
            y = (gen.random(n) < expit(xb)).astype(float)
        elif kind == "pois-mle":
            y = gen.poisson(np.exp(xb)).astype(float)
        else:
            y = xb + gen.standard_normal(n)
        fit = fit_or_reject(x, y, kind, lam)
        adj, b, z = fit.adjustments, fit.beta, x @ fit.beta
        if kind == "logit-mle":
            mean = expit(z)
            weights = mean * (1 - mean)
        elif kind == "pois-mle":
            mean = weights = np.exp(z)
        else:
            mean, weights = z, np.ones(n)
        lam = lam if kind == "ridge" else 0.0
    v = dense_v(x, weights, lam)  # 1 - kappa for ls
    sigma2 = kappa * np.sum((y - mean) ** 2) / (n * (v + lam) ** 2)
    terms = (b @ b, sigma2) if lam > 0 else (z @ z / n, (1 - kappa) * sigma2)
    assert adj.kappa == kappa
    assert adj.v == pytest.approx(v, rel=1e-10)
    assert adj.gamma == pytest.approx(kappa / (v + lam), rel=1e-10)
    assert adj.sigma2 == pytest.approx(sigma2, rel=1e-10)
    # mu^2 is |difference of the two terms|, which may cancel.
    assert abs(adj.mu ** 2 - abs(terms[0] - terms[1])) <= 1e-10 * sum(terms)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(PILOT_KINDS),
    wide=st.booleans(),
    n=st.integers(20, 40),
    kappa=st.floats(0.1, 0.6),
    lam=st.floats(0.05, 2.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_pilot_is_rotation_equivariant(kind, wide, n, kappa, lam, seed):
    # X -> XQ with Q orthogonal gives b -> Q'b and leaves the adjustments
    # unchanged; the ridge pilot is drawn with p > n as well.  The ridge and
    # least-squares pilots solve exactly.  The MLE pilots stop at a gradient
    # tolerance, so their gap may add the Newton step left at each fit.
    gen = np.random.default_rng(seed)
    p = n + int(kappa * n) if wide and kind == "ridge" else max(1, int(kappa * n))
    x = gen.standard_normal((n, p))
    t = x @ gen.standard_normal(p) / np.sqrt(p)
    if kind == "logit-mle":
        y = (gen.random(n) < expit(t)).astype(float)
    elif kind == "pois-mle":
        y = gen.poisson(np.exp(t)).astype(float)
    else:
        y = t + gen.standard_normal(n)
    q = np.linalg.qr(gen.standard_normal((p, p)))[0]
    fit = fit_or_reject(x, y, kind, lam)
    rot = fit_or_reject(x @ q, y, kind, lam)
    b, adj, adj_rot = fit.beta, fit.adjustments, rot.adjustments

    def newton_left(x, b):
        if kind not in MLE_FAMILY:
            return 0.0
        _, mean, weights = PILOT_LINKS[kind].evaluate(x @ b)
        hessian = x.T @ (weights[:, None] * x)
        return np.linalg.norm(np.linalg.solve(hessian, x.T @ (mean - y)))

    tol = 1e-8 + 10 * (newton_left(x, b) + newton_left(x @ q, rot.beta)) / np.linalg.norm(b)
    assert np.linalg.norm(rot.beta - q.T @ b) <= tol * np.linalg.norm(b)
    assert adj_rot.kappa == adj.kappa
    for name in ("v", "gamma", "sigma2"):
        assert getattr(adj_rot, name) == pytest.approx(getattr(adj, name), rel=tol)
    # mu is the root of a radicand that may cancel; compare the radicands
    # against the size of their terms.
    scale = b @ b + np.sum((x @ b) ** 2) / n + adj.sigma2
    assert abs(adj_rot.mu ** 2 - adj.mu ** 2) <= tol * scale


def counting(link, calls):
    """link with every evaluation of it recorded in calls."""

    def evaluate(t):
        calls.append(link.label)
        return link.evaluate(t)

    return LinkFunction(link.label, evaluate)


def test_adjustments_evaluate_the_link_once(monkeypatch):
    # The MLE pilot's adjustments and the refit's inferential adjustments
    # each take g' for the trace and g for the formula from one evaluation,
    # and the debiased index takes the pilot's score from that one too.
    x = rng.standard_normal((120, 6))
    beta = 0.3 * rng.normal(size=6)
    y = (rng.random(120) < expit(x @ beta)).astype(float)
    calls = []
    plain = fit_pilot(x, y, "logit-mle")
    monkeypatch.setitem(PILOT_LINKS, "logit-mle", counting(LOGISTIC_LINK, calls))
    counted = fit_pilot(x, y, "logit-mle")
    index = debias_index(counted)
    assert np.array_equal(counted.beta, plain.beta)
    assert counted.adjustments == plain.adjustments
    assert np.array_equal(index.w, debias_index(plain).w)
    assert calls == ["logistic"]
    for lam, window in ((0.2, None), (0.0, (-0.5, 0.5))):
        calls.clear()
        link = counting(LOGISTIC_LINK, calls)
        got = adjust_inferential(x, y, beta, link, lam, window)
        assert got == adjust_inferential(x, y, beta, LOGISTIC_LINK, lam, window)
        assert calls == ["logistic"]
