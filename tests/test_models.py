"""Model registry, links, and synthetic data generation."""

import numpy as np
import pytest

from sindex.errors import ConfigError, GenerationError, InvalidDesignError
from sindex.models import (
    Dataset,
    DesignSpec,
    MODELS,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)

VARIANTS = sorted(MODELS)


def test_registry_values_at_zero():
    assert model_lookup("xsqrt").link(0.0) == pytest.approx(1.0)
    assert model_lookup("piecewise").link(0.0) == pytest.approx(0.0)
    assert model_lookup("cloglog").link(0.0) == pytest.approx(1 - np.exp(-1))
    assert model_lookup("logit").link(0.0) == pytest.approx(0.5)


def test_unknown_variant_raises():
    with pytest.raises(ConfigError):
        model_lookup("probit").link


@pytest.mark.parametrize("variant", VARIANTS)
def test_link_derivative_matches_finite_differences(variant):
    # relative to the derivative's scale on the window; a pointwise ratio
    # would only measure float cancellation where g' underflows
    link = model_lookup(variant).link
    xs = np.linspace(-3, 3, 601)
    # keep clear of the piecewise kink points where the derivative jumps
    if variant.startswith("piecewise"):
        xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-2]
    eps = 1e-6
    fd = (link(xs + eps) - link(xs - eps)) / (2 * eps)
    err = np.max(np.abs(fd - link.deriv(xs))) / np.max(np.abs(link.deriv(xs)))
    assert err < 1e-6


@pytest.mark.parametrize("variant", VARIANTS)
def test_link_derivative_positive_on_grid(variant):
    link = model_lookup(variant).link
    grid = np.linspace(-3, 3, 1000)
    assert np.min(link.deriv(grid)) > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_link_antiderivative_consistent(variant):
    link = model_lookup(variant).link
    xs = np.linspace(-3, 3, 201)
    eps = 1e-5
    fd = (link.antideriv(xs + eps) - link.antideriv(xs - eps)) / (2 * eps)
    assert np.max(np.abs(fd - link(xs))) < 1e-6


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
