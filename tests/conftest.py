"""Shared Monte Carlo fixtures.

The expensive replication studies are computed once per session through the
experiment harness; acceptance criteria and module-level distributional
tests both read from them.
"""

import time

import numpy as np
import pytest

from sindex.deconv import KERNELS, DeconvConfig
from sindex.experiments import ExperimentSpec, run_experiment
from sindex.inference import oracle_params
from sindex.models import (
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline

SEED = 20240


@pytest.fixture(scope="session")
def fig1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    start = time.perf_counter()
    spec = ExperimentSpec("figure1", str(out), models=("cubic", "xsqrt"), reps=200, seed=SEED)
    manifest = run_experiment(spec)
    return manifest, time.perf_counter() - start, out


@pytest.fixture(scope="session")
def fig2_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    start = time.perf_counter()
    manifest = run_experiment(ExperimentSpec("figure2", str(out), reps=50, seed=SEED))
    return manifest, time.perf_counter() - start, out


@pytest.fixture(scope="session")
def fig3_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    start = time.perf_counter()
    manifest = run_experiment(ExperimentSpec("figure3", str(out), reps=300, seed=SEED))
    return manifest, time.perf_counter() - start, out


@pytest.fixture(scope="session")
def table1_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    start = time.perf_counter()
    spec = ExperimentSpec(
        "table1", str(out), models=("logit", "piecewise", "cubic+"), reps=100, seed=SEED
    )
    manifest = run_experiment(spec)
    return manifest, time.perf_counter() - start, out


def _adjustment_errors(penalty, penalty_lam, mode, reps=200, n=2000, p=50):
    """Cloglog pipeline adjustment errors against the simulation oracle."""
    design = DesignSpec.identity(p)
    model = model_lookup("cloglog")
    config = PipelineConfig(
        pilot_kind="logit-mle",
        pilot_lam=None,
        deconv=DeconvConfig(kernel=KERNELS["flattop"]),
        penalty=penalty,
        penalty_lam=penalty_lam,
        inference_mode=mode,
        split=SplitConfig(no_split=True),
    )
    mu_errs, s2_errs = [], []
    for ss in np.random.SeedSequence(SEED).spawn(reps):
        s_beta, s_x, s_y = ss.spawn(3)
        beta = sample_coefficients(p, "uniform-sphere", design, s_beta)
        x = sample_design(n, design, s_x)
        y = generate_responses(x, beta, model, s_y)
        report = run_pipeline(Dataset(x, y), config, design=design)
        oracle = oracle_params(report.coef.beta, beta)
        mu_errs.append(abs(report.inference.mu_hat - oracle.mu))
        s2_errs.append(abs(report.inference.sigma2_hat - oracle.sigma ** 2))
    return float(np.mean(mu_errs)), float(np.mean(s2_errs))


@pytest.fixture(scope="session")
def adjustment_errors_ridge():
    start = time.perf_counter()
    errs = _adjustment_errors("ridge", 0.1, "ridge")
    return errs, time.perf_counter() - start


@pytest.fixture(scope="session")
def adjustment_errors_unregularized():
    start = time.perf_counter()
    errs = _adjustment_errors("none", 0.0, "unregularized")
    return errs, time.perf_counter() - start
