"""Data splitting and end-to-end pipeline runs."""

import numpy as np
import pytest

from sindex.errors import ConfigError, PipelineError, SplitError
from sindex.experiments import _map_reps
from sindex.models import (
    CLOGLOG_LINK,
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline, split_data
from sindex.surrogate import SurrogateProblem, fit_coefficients


def make_data(n=400, p=160, model="cloglog", seed=77):
    spec = DesignSpec.identity(p)
    seeds = np.random.SeedSequence(seed).spawn(3)
    beta = sample_coefficients(p, "uniform-sphere", spec, seeds[0])
    x = sample_design(n, spec, seeds[1])
    y = generate_responses(x, beta, model_lookup(model), seeds[2])
    return Dataset(x, y), beta, spec


def test_split_halves_disjoint_exhaustive():
    i1, i2 = split_data(10, SplitConfig(fraction=0.5, seed=4))
    assert len(i1) == len(i2) == 5
    assert len(np.intersect1d(i1, i2)) == 0
    assert np.array_equal(np.sort(np.concatenate([i1, i2])), np.arange(10))


def test_split_deterministic():
    a = split_data(100, SplitConfig(seed=9))
    b = split_data(100, SplitConfig(seed=9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_no_split_returns_full_index_twice():
    i1, i2 = split_data(7, SplitConfig(no_split=True))
    assert np.array_equal(i1, np.arange(7))
    assert np.array_equal(i2, np.arange(7))


def test_split_errors():
    with pytest.raises(ConfigError):
        SplitConfig(fraction=0.0)
    with pytest.raises(SplitError):
        split_data(1, SplitConfig())
    with pytest.raises(SplitError):
        split_data(3, SplitConfig(fraction=0.05))


def test_pipeline_smoke_cloglog_desk():
    # n=400, p=160, ridge pilot lambda 1, ridge penalty lambda 0.1
    data, beta, spec = make_data()
    config = PipelineConfig(split=SplitConfig(seed=3))
    report = run_pipeline(data, config, design=spec)
    assert np.all(np.diff(report.link.values) >= 0)
    assert np.isfinite(report.inference.mu_hat)
    assert np.isfinite(report.inference.sigma2_hat)
    assert len(report.inference.ci_lo) == data.p
    assert report.kappa1 == data.p / report.n1
    assert report.kappa2 == data.p / report.n2


def test_pipeline_bit_identical_reruns():
    data, _, spec = make_data(n=200, p=40)
    config = PipelineConfig(split=SplitConfig(seed=11))
    a = run_pipeline(data, config, design=spec)
    b = run_pipeline(data, config, design=spec)
    assert a.to_json() == b.to_json()


def test_no_split_matches_manual_full_index():
    data, _, spec = make_data(n=150, p=30)
    config = PipelineConfig(split=SplitConfig(no_split=True))
    report = run_pipeline(data, config, design=spec)
    assert report.n1 == report.n2 == data.n
    assert report.kappa1 == report.kappa2 == data.p / data.n


def test_bypass_mode_equals_direct_fit():
    data, _, spec = make_data(n=300, p=30)
    config = PipelineConfig(
        pilot_kind="ridge",
        pilot_lam=1.0,
        penalty="none",
        penalty_lam=0.0,
        inference_mode="unregularized",
        split=SplitConfig(no_split=True),
        bypass_link=CLOGLOG_LINK,
    )
    report = run_pipeline(data, config, design=spec)
    assert report.link is None
    direct = fit_coefficients(
        data.x, data.y, SurrogateProblem.from_link_function(CLOGLOG_LINK)
    )
    assert np.max(np.abs(report.coef.beta - direct.beta)) < 1e-12


def test_stage_labels_on_errors():
    data, _, spec = make_data(n=50, p=100)  # p > n, ls pilot impossible
    config = PipelineConfig(
        pilot_kind="ls",
        pilot_lam=None,
        split=SplitConfig(no_split=True),
    )
    with pytest.raises(PipelineError) as excinfo:
        run_pipeline(data, config, design=spec)
    assert excinfo.value.stage == "pilot"


def test_pipeline_error_crosses_process_pool():
    args = [(Dataset(np.ones((1, 3)), np.ones(1)), PipelineConfig())]
    with pytest.raises(PipelineError) as excinfo:
        _map_reps(run_pipeline, args, 2)
    assert excinfo.value.stage == "split"
    assert isinstance(excinfo.value.cause, SplitError)


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(penalty="none", inference_mode="ridge")
    with pytest.raises(ConfigError):
        PipelineConfig(penalty="ridge", penalty_lam=0.1, inference_mode="unregularized")
    with pytest.raises(ConfigError):
        PipelineConfig(penalty="lasso")


def test_config_round_trip():
    config = PipelineConfig(
        pilot_kind="ls",
        pilot_lam=None,
        penalty="none",
        penalty_lam=0.0,
        inference_mode="censored",
        alpha=0.1,
        split=SplitConfig(fraction=0.25, seed=5),
    )
    doc = config.to_dict()
    rebuilt = PipelineConfig.from_dict(doc)
    assert rebuilt.to_dict() == doc
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"unknown_section": {}})


def test_censored_mode_runs():
    data, _, spec = make_data(n=300, p=60, model="cubic")
    config = PipelineConfig(
        pilot_kind="ls",
        pilot_lam=None,
        penalty="none",
        penalty_lam=0.0,
        inference_mode="censored",
        split=SplitConfig(no_split=True),
    )
    report = run_pipeline(data, config, design=spec)
    assert report.inference.mode == "censored"
    assert np.isfinite(report.inference.sigma2_hat)
