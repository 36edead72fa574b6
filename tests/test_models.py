"""Model registry, links, and synthetic data generation."""

import numpy as np
import pytest

from sindex.errors import ConfigError, GenerationError, InvalidDesignError
from sindex.models import (
    CLOGLOG_LINK,
    CUBIC_LINK,
    EXP_LINK,
    IDENTITY_LINK,
    LOGISTIC_LINK,
    PIECEWISE_LINK,
    XSQRT_LINK,
    Dataset,
    DesignSpec,
    MODELS,
    SimModel,
    covariance_cholesky,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)

#: The seven built-in links, each keyed by the model that draws data through
#: it (cubic+ and piecewise+ share the cubic and piecewise links), and the
#: identity by its own label: it is the working link of the quadratic-loss
#: pilots and of no model.
LINKS = {
    "cloglog": CLOGLOG_LINK,
    "cubic": CUBIC_LINK,
    "logit": LOGISTIC_LINK,
    "piecewise": PIECEWISE_LINK,
    "poisson": EXP_LINK,
    "xsqrt": XSQRT_LINK,
    "identity": IDENTITY_LINK,
}


def test_registry_values_at_zero():
    assert model_lookup("xsqrt").link(0.0) == pytest.approx(1.0)
    assert model_lookup("piecewise").link(0.0) == pytest.approx(0.0)
    assert model_lookup("cloglog").link(0.0) == pytest.approx(1 - np.exp(-1))
    assert model_lookup("logit").link(0.0) == pytest.approx(0.5)


def test_unknown_variant_raises():
    with pytest.raises(ConfigError):
        model_lookup("probit").link


@pytest.mark.parametrize("name", LINKS)
def test_link_derivative_matches_finite_differences(name):
    # relative to the derivative's scale on the window; a pointwise ratio
    # would only measure float cancellation where g' underflows
    link = LINKS[name]
    xs = np.linspace(-3, 3, 601)
    # keep clear of the piecewise kink points where the derivative jumps
    if link is PIECEWISE_LINK:
        xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-2]
    eps = 1e-6
    fd = (link(xs + eps) - link(xs - eps)) / (2 * eps)
    deriv = link.evaluate(xs)[2]
    err = np.max(np.abs(fd - deriv)) / np.max(np.abs(deriv))
    assert err < 1e-6


@pytest.mark.parametrize("name", LINKS)
def test_link_derivative_positive_on_grid(name):
    grid = np.linspace(-3, 3, 1000)
    assert np.min(LINKS[name].evaluate(grid)[2]) > 0


@pytest.mark.parametrize("name", LINKS)
def test_link_antiderivative_consistent(name):
    link = LINKS[name]
    xs = np.linspace(-3, 3, 201)
    eps = 1e-5
    fd = (link.evaluate(xs + eps)[0] - link.evaluate(xs - eps)[0]) / (2 * eps)
    assert np.max(np.abs(fd - link(xs))) < 1e-6


def test_links_cover_every_model():
    assert {model.link for model in MODELS.values()} | {IDENTITY_LINK} == set(LINKS.values())


@pytest.mark.parametrize("name", LINKS)
def test_link_call_is_the_value_of_evaluate(name):
    xs = np.random.default_rng(7).standard_normal(500) * 4.0
    assert np.array_equal(LINKS[name](xs), LINKS[name].evaluate(xs)[1])


def test_piecewise_branches_agree_at_kinks():
    link = model_lookup("piecewise").link
    assert abs(0.2 * 1 + 2.3 - 2.5 * 1) < 1e-12
    assert abs(link(1.0) - 2.5) < 1e-12
    assert abs(link(-1.0) - (-2.5)) < 1e-12
    eps = 1e-9
    assert abs(link(1.0 + eps) - link(1.0 - eps)) < 1e-8


def test_sample_design_covariance_oracle():
    # Monte Carlo moment check: 1e5 draws from N(0, I_2).
    spec = DesignSpec.identity(2)
    x = sample_design(100_000, spec, seed=1)
    cov = x.T @ x / len(x)
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_sample_design_column_means_shrink():
    spec = DesignSpec.identity(4)
    for n in (400, 6400):
        x = sample_design(n, spec, seed=2)
        assert np.max(np.abs(x.mean(axis=0))) < 5 / np.sqrt(n)


def test_sample_design_identity_is_the_raw_draw():
    x = sample_design(30, DesignSpec.identity(4), seed=5)
    assert np.array_equal(x, np.random.default_rng(5).standard_normal((30, 4)))


def unit_with(i, j, value):
    chol = np.eye(3)
    chol[i, j] = value
    return chol


@pytest.mark.parametrize(
    "chol",
    [unit_with(0, 0, 2.0), unit_with(1, 0, 0.5), unit_with(2, 1, -0.1), unit_with(0, 2, 0.3)],
    ids=["diagonal", "below-first", "below-last", "above"],
)
def test_sample_design_multiplies_by_a_non_identity_factor(chol):
    spec = DesignSpec(p=3, chol=chol, tau=np.ones(3))
    x = sample_design(30, spec, seed=5)
    raw = np.random.default_rng(5).standard_normal((30, 3))
    assert np.array_equal(x, raw @ chol.T)


def test_sample_design_rejects_indefinite_sigma():
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(InvalidDesignError):
        DesignSpec.from_sigma(sigma)


def test_design_spec_rejects_asymmetric():
    with pytest.raises(InvalidDesignError):
        DesignSpec.from_sigma(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_design_spec_tau():
    sigma = np.diag([4.0, 1.0])
    spec = DesignSpec.from_sigma(sigma)
    assert spec.tau == pytest.approx([2.0, 1.0])


def test_sample_coefficients_sphere_unit_norm():
    spec = DesignSpec.identity(30)
    beta = sample_coefficients(30, "uniform-sphere", spec, seed=3)
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)


def test_sample_coefficients_sparse_pattern():
    spec = DesignSpec.identity(500)
    beta = sample_coefficients(500, "sparse(100)", spec, seed=4)
    assert np.allclose(beta[:100], 0.1)
    assert np.all(beta[100:] == 0.0)


def test_sample_coefficients_general_sigma_normalized():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    sigma = a @ a.T + 6 * np.eye(6)
    spec = DesignSpec.from_sigma(sigma)
    beta = sample_coefficients(6, "uniform-sphere", spec, seed=6)
    assert beta @ sigma @ beta == pytest.approx(1.0, abs=1e-12)


def test_sample_coefficients_bad_scheme():
    spec = DesignSpec.identity(10)
    with pytest.raises(ConfigError):
        sample_coefficients(10, "sparse(11)", spec, seed=0)
    with pytest.raises(ConfigError):
        sample_coefficients(10, "dense", spec, seed=0)


def test_noiseless_cubic_responses_exact():
    from dataclasses import replace

    model = replace(model_lookup("cubic"), noise_sd=0.0)
    spec = DesignSpec.identity(3)
    x = sample_design(50, spec, seed=7)
    beta = sample_coefficients(3, "uniform-sphere", spec, seed=8)
    y = generate_responses(x, beta, model, seed=9)
    assert np.allclose(y, (x @ beta) ** 3 / 3.0)


def test_cloglog_monte_carlo_mean():
    # At a fixed index t the response mean is 1 - exp(-exp(t)).
    t = 0.7
    x = np.full((100_000, 1), t)
    beta = np.array([1.0])
    y = generate_responses(x, beta, model_lookup("cloglog"), seed=10)
    assert abs(y.mean() - (1 - np.exp(-np.exp(t)))) < 0.01


def test_generate_responses_deterministic():
    spec = DesignSpec.identity(5)
    x = sample_design(40, spec, seed=11)
    beta = sample_coefficients(5, "uniform-sphere", spec, seed=12)
    model = model_lookup("xsqrt")
    y1 = generate_responses(x, beta, model, seed=13)
    y2 = generate_responses(x, beta, model, seed=13)
    assert np.array_equal(y1, y2)


def test_poisson_nonfinite_mean_raises():
    x = np.array([[1000.0]])
    beta = np.array([1.0])
    with pytest.raises(GenerationError):
        generate_responses(x, beta, model_lookup("poisson"), seed=0)


def test_plus_variants_shift_mean():
    spec = DesignSpec.identity(4)
    x = sample_design(20_000, spec, seed=14)
    beta = sample_coefficients(4, "uniform-sphere", spec, seed=15)
    y = generate_responses(x, beta, model_lookup("cubic+"), seed=16)
    y0 = generate_responses(x, beta, model_lookup("cubic"), seed=16)
    assert (y - y0).mean() == pytest.approx(5.0, abs=0.05)


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
    with pytest.raises(ConfigError):
        Dataset(np.ones((3, 2)), np.ones(2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Dataset(np.ones(3), np.ones(3)), ConfigError, "n x p"),
        (lambda: covariance_cholesky(np.ones((2, 3))), InvalidDesignError, "square"),
        (lambda: DesignSpec.identity(0), InvalidDesignError, "dimension must be >= 1"),
        (lambda: sample_design(0, DesignSpec.identity(2), 0), ConfigError, "at least one row"),
        (
            lambda: sample_coefficients(3, "uniform-sphere", DesignSpec.identity(2), 0),
            ConfigError,
            "dimension does not match",
        ),
        (
            lambda: sample_coefficients(3, "sparse(x)", DesignSpec.identity(3), 0),
            ConfigError,
            "bad sparse scheme 'sparse\\(x\\)'",
        ),
        (
            lambda: generate_responses(
                np.ones((2, 1)), np.ones(1), SimModel("m", IDENTITY_LINK, "gamma"), 0
            ),
            ConfigError,
            "unknown response family 'gamma'",
        ),
    ],
    ids=[
        "dataset-1d-x", "covariance-not-square", "identity-0", "design-0-rows",
        "coefficients-wrong-p", "sparse-not-a-number", "unknown-response",
    ],
)
def test_models_reject_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
