"""Data splitting and end-to-end pipeline runs."""

import glob
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sindex
from sindex.deconv import KERNELS, DeconvConfig
from sindex.errors import ConfigError, PipelineError, SplitError
from sindex.experiments import FIGURE3_CONFIG, TABLE1_CONFIG, _map_reps, _simulate
from sindex.models import (
    Dataset,
    DesignSpec,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline, split_data


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


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(80, 300),
    p=st.integers(5, 60),
    model=st.sampled_from(["cloglog", "logit"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_split_fit_invariant_to_row_order(n, p, model, seed):
    data, _, spec = make_data(n=n, p=p, model=model, seed=seed)
    order = np.random.default_rng(seed).permutation(n)
    config = PipelineConfig(split=SplitConfig(no_split=True))
    outcomes = []
    for x, y in ((data.x, data.y), (data.x[order], data.y[order])):
        try:
            outcomes.append(run_pipeline(Dataset(x, y), config, design=spec))
        except PipelineError as err:
            outcomes.append(err.stage)
    a, b = outcomes
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert np.allclose(a.coef.beta, b.coef.beta, rtol=1e-8, atol=1e-12)
    ia, ib = a.inference, b.inference
    assert ia.mu_hat == pytest.approx(ib.mu_hat, rel=1e-8)
    assert ia.sigma2_hat == pytest.approx(ib.sigma2_hat, rel=1e-8)
    assert np.allclose(ia.t_stats, ib.t_stats, rtol=1e-8, atol=1e-8)


def test_no_split_matches_manual_full_index():
    data, _, spec = make_data(n=150, p=30)
    config = PipelineConfig(split=SplitConfig(no_split=True))
    report = run_pipeline(data, config, design=spec)
    assert report.n1 == report.n2 == data.n
    assert report.kappa1 == report.kappa2 == data.p / data.n


#: figure3's and table1's pipeline configurations.
FIGURE3_CONFIG = PipelineConfig(
    deconv=DeconvConfig(bandwidth_mode="fixed", h=2.5), split=SplitConfig(no_split=True)
)
TABLE1_CONFIG = PipelineConfig(
    pilot_kind="logit-mle",
    pilot_lam=None,
    deconv=DeconvConfig(kernel=KERNELS["flattop"]),
    penalty="none",
    penalty_lam=0.0,
    inference_mode="unregularized",
    split=SplitConfig(no_split=True),
)


@pytest.mark.parametrize(
    "model,n,p,seedseq,config",
    [
        # figure3 replication 195 at seed 1: near-degenerate ridge pilot.
        ("cloglog", 250, 500, np.random.SeedSequence(1).spawn(300)[195], FIGURE3_CONFIG),
        # table1 replication 73 at seed 33.
        ("logit", 2000, 50, np.random.SeedSequence(33).spawn(74)[73].spawn(2)[0], TABLE1_CONFIG),
    ],
    ids=["figure3-195", "table1-33-73"],
)
def test_refit_converges_where_full_steps_cycled(model, n, p, seedseq, config):
    # Full Newton steps that halved the gradient but raised the objective
    # cycled on these piecewise-linear links until the iteration cap.
    x, y, _, design = _simulate(model, n, p, "uniform-sphere", seedseq)
    report = run_pipeline(Dataset(x, y), config, design=design)
    assert report.coef.converged
    assert report.coef.iterations < 50


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


def test_configs_check_seed_and_alpha_when_built():
    for seed in (-1, 1.5, "3", True, None):
        with pytest.raises(ConfigError, match="seed"):
            SplitConfig(seed=seed)
    assert SplitConfig(seed=np.uint32(7)).seed == 7
    for alpha in (0.0, 1.0, -0.1, 2, float("nan")):
        with pytest.raises(ConfigError, match="alpha"):
            PipelineConfig(alpha=alpha)
    # The experiments' configs survive a round trip through their documents.
    for config in (PipelineConfig(), FIGURE3_CONFIG, TABLE1_CONFIG):
        config = replace(config, split=replace(config.split, seed=2**32 - 1))
        assert PipelineConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()


def test_report_names_the_grid_the_fit_used():
    # to_dict writes a grid as (a, b, points); one that linspace would not
    # rebuild bit for bit is refused rather than misreported.
    for grid in ([-3.0, 0.0, 1.0, 3.0], np.linspace(-3.0, 3.0, 301) + 1e-12):
        with pytest.raises(ConfigError, match="default_grid"):
            DeconvConfig(grid=np.array(grid))
    for a, b, points in ((-3, 3, 301), (-1.5, 1.5, 21), (-60.0, 60.0, 3), (0.1, 0.7, 7)):
        config = PipelineConfig(deconv=DeconvConfig(grid=np.linspace(a, b, points)))
        echo = PipelineConfig.from_dict(config.to_dict())
        assert np.array_equal(echo.deconv.grid, config.deconv.grid)


@pytest.mark.parametrize(
    "module",
    sorted(
        os.path.basename(path)[:-3]
        for path in glob.glob(os.path.join(os.path.dirname(sindex.__file__), "*.py"))
        if not path.endswith("__init__.py")
    ),
)
def test_module_imports_first_in_fresh_interpreter(module):
    # Guards against import cycles that only show for one import order.
    done = _run_fresh(f"import sindex.{module}; from sindex.debias import IndexEstimate")
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_no_scipy_integrate_or_stats():
    # Cold start: the package needs only scipy.linalg and scipy.special;
    # scipy.stats and scipy.integrate alone would add most of the import.
    code = (
        "import sys, sindex.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.stats'))))"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _run_fresh(code):
    """Run code in a new interpreter that imports this sindex."""
    src = os.path.dirname(os.path.dirname(sindex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_split_fit_holds_one_half_at_a_time():
    # Each half is copied for its own stages, the pilot half released before
    # the refit half is copied, and the trace works in the refit's factor:
    # the traced peak stays below three copies of one half (3.6 when both
    # halves were held for the whole fit and the trace factored again).
    n, p = 4000, 400
    x, y, _, _ = _simulate("cloglog", n, p, "uniform-sphere", np.random.SeedSequence(0))
    data = Dataset(x, y)
    config = PipelineConfig(split=SplitConfig(fraction=0.5))
    tracemalloc.start()
    try:
        run_pipeline(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (n // 2) * p * 8
