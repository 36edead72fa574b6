"""Data splitting and end-to-end pipeline runs."""

import glob
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sindex
from sindex import experiments
from sindex.deconv import DeconvConfig, _MAX_EXPONENT, _kernel_exponent, select_bandwidth
from sindex.errors import (
    ConfigError, NonConvergenceError, PipelineError, SolverError, SplitError
)
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
from sindex.surrogate import surrogate_objective


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


def newton_step_left(x, y, report, lam):
    """Norm of the Newton step the refit left at its stop: to first order,
    the distance from its beta to the exact minimizer."""
    _, grad, gprime = surrogate_objective(report.coef.beta, x, y, report.link, lam)
    hessian = x.T @ (gprime[:, None] * x) + lam * len(y) * np.eye(x.shape[1])
    return np.linalg.norm(np.linalg.solve(hessian, grad))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 40), seed=st.integers(0, 2**32 - 1))
def test_figure3_fit_is_rotation_equivariant(n, seed):
    # An isotropic design at figure3's configuration and p / n: X -> XQ with
    # Q orthogonal maps beta to Q'beta and leaves the index, the link values,
    # mu and sigma^2 unchanged, to 1e-9 relative up to three measured
    # allowances (8,398 draws, n = 20-40):
    # - the refit stops at a gradient tolerance, and the two fits may stop
    #   one Newton iteration apart (60 draws), so each gap may add the Newton
    #   step left at each fit;
    # - mu is the root of a radicand whose terms |beta|^2 and sigma^2 may
    #   nearly cancel, so its square is compared against their sum;
    # - the deconvolution amplifies the index's rounding gap (under 2.4e-12)
    #   as the index noise varsigma^2 grows against the fixed bandwidth:
    #   the link's gap stayed under 2.5e-10 below varsigma^2 = 1000 and
    #   reached 3.3e-9 at 6,450, so its tolerance grows as varsigma^2 / 500.
    data, _, spec = make_data(n=n, p=2 * n, seed=seed)
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((2 * n, 2 * n)))[0]
    outcomes = []
    for x in (data.x, data.x @ q):
        try:
            report = run_pipeline(Dataset(x, data.y), FIGURE3_CONFIG, design=spec)
            left = newton_step_left(x, data.y, report, FIGURE3_CONFIG.penalty_lam)
            outcomes.append((report, left))
        except PipelineError as err:
            outcomes.append(err.stage)
    if any(isinstance(outcome, str) for outcome in outcomes):
        assert outcomes[0] == outcomes[1]
        return
    (a, left_a), (b, left_b) = outcomes
    scale = np.linalg.norm(a.coef.beta)
    tol = 1e-9 + 4 * (left_a + left_b) / scale
    assert np.linalg.norm(b.coef.beta - q.T @ a.coef.beta) <= tol * scale
    assert np.max(np.abs(b.index.w - a.index.w)) <= 1e-9 * np.max(np.abs(a.index.w))
    assert b.index.varsigma2 == pytest.approx(a.index.varsigma2, rel=tol)
    link_tol = tol * max(1.0, a.index.varsigma2 / 500)
    gap = np.max(np.abs(b.link.values - a.link.values))
    assert gap <= link_tol * np.max(np.abs(a.link.values))
    ia, ib = a.inference, b.inference
    assert ib.sigma2_hat == pytest.approx(ia.sigma2_hat, rel=tol)
    terms = scale ** 2 + ia.sigma2_hat
    assert abs(ib.mu_hat ** 2 - ia.mu_hat ** 2) <= tol * terms


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(150, 400),
    p=st.integers(5, 30),
    c=st.floats(1.0, 1e4),
    model=st.sampled_from(["cubic", "piecewise"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table1_refit_is_scale_equivariant(n, p, c, model, seed):
    # table1's unregularized refit on an ls pilot: X -> cX maps the pilot
    # and the refit's beta to beta / c and leaves the index, the link
    # values, mu and sigma^2 unchanged, to 1e-9 relative.  The refit stops
    # at an absolute gradient tolerance, so the two fits may stop one Newton
    # iteration apart (53 of 300 draws in a sweep), and the beta, mu and
    # sigma^2 gaps may add the Newton step left at each fit.  The worst
    # gaps were 8.8e-11 (beta), 1.4e-11 (mu), 7.9e-11 (sigma^2) and 6.7e-12
    # (link).
    config = replace(TABLE1_CONFIG, pilot_kind="ls")
    data, _, spec = make_data(n=n, p=p, model=model, seed=seed)
    outcomes = []
    for x in (data.x, c * data.x):
        try:
            report = run_pipeline(Dataset(x, data.y), config, design=spec)
            outcomes.append((report, newton_step_left(x, data.y, report, 0.0)))
        except PipelineError as err:
            outcomes.append(err)
    if isinstance(outcomes[0], PipelineError):
        assert isinstance(outcomes[1], PipelineError)
        assert outcomes[1].stage == outcomes[0].stage
        return
    a, left_a = outcomes[0]
    if isinstance(outcomes[1], PipelineError):
        # The known fault of that tolerance (ROADMAP item 8): the scaled
        # gradient is c times the unscaled one, so near c = 1e4 the refit
        # must push the unscaled gradient to about 1e-12, below what the
        # objective resolves, and its line search fails (3 of the 300 draws,
        # at c of 5.8e3 to 9.8e3).  The unscaled fit met the tolerance.
        err = outcomes[1]
        assert (err.stage, type(err.cause)) == ("coef", NonConvergenceError)
        assert "line search failed" in str(err.cause)
        assert err.cause.grad_norm / c < 1e-8 and a.coef.grad_norm < 1e-8
        return
    b, left_b = outcomes[1]
    scale = np.linalg.norm(a.coef.beta)
    tol = 1e-9 + (left_a + c * left_b) / scale
    assert np.linalg.norm(c * b.coef.beta - a.coef.beta) <= tol * scale
    pilot_gap = np.linalg.norm(c * b.pilot.beta - a.pilot.beta)
    assert pilot_gap <= 1e-9 * np.linalg.norm(a.pilot.beta)
    assert np.max(np.abs(b.index.w - a.index.w)) <= 1e-9 * np.max(np.abs(a.index.w))
    gap = np.max(np.abs(b.link.values - a.link.values))
    assert gap <= 1e-9 * np.max(np.abs(a.link.values))
    ia, ib = a.inference, b.inference
    assert ib.mu_hat == pytest.approx(ia.mu_hat, rel=tol)
    assert ib.sigma2_hat == pytest.approx(ia.sigma2_hat, rel=tol)


def test_no_split_matches_manual_full_index():
    data, _, spec = make_data(n=150, p=30)
    config = PipelineConfig(split=SplitConfig(no_split=True))
    report = run_pipeline(data, config, design=spec)
    assert report.n1 == report.n2 == data.n
    assert report.kappa1 == report.kappa2 == data.p / data.n


@pytest.mark.parametrize(
    "model,n,p,seedseq,config",
    [
        # figure3 replication 195 at seed 1: near-degenerate ridge pilot.
        ("cloglog", 250, 500, np.random.SeedSequence(1).spawn(300)[195], FIGURE3_CONFIG),
        # table1 replication 73 at seed 33, with the logit model's MLE pilot.
        (
            "logit", 2000, 50, np.random.SeedSequence(33).spawn(74)[73].spawn(2)[0],
            replace(TABLE1_CONFIG, pilot_kind="logit-mle"),
        ),
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


def test_fixed_bandwidth_yields_where_its_kernel_would_overflow():
    # figure3 replication 224 at seed 1: a degenerate ridge pilot (mu about
    # 0.002) puts varsigma^2 near 28,670, past what h = 2.5 tolerates.  The
    # fit takes the theory bandwidth and matches a fit configured with it.
    config = experiments.FIGURE3_CONFIG
    seedseq = np.random.SeedSequence(1).spawn(300)[224]
    x, y, _, design = _simulate("cloglog", 250, 500, "uniform-sphere", seedseq)
    report = run_pipeline(Dataset(x, y), config, design=design)
    varsigma = np.sqrt(report.index.varsigma2)
    assert _kernel_exponent(config.deconv.h, varsigma) > _MAX_EXPONENT
    assert report.link.h == select_bandwidth(250, varsigma)
    theory = replace(config.deconv, bandwidth_mode="theory", h=None)
    expected = run_pipeline(Dataset(x, y), replace(config, deconv=theory), design=design)
    doc, ref = report.to_dict(), expected.to_dict()
    for stage in ("link", "coef", "inference"):
        assert json.dumps(doc[stage]) == json.dumps(ref[stage]), stage
    # The report keeps the bandwidth that was asked for.
    assert doc["config"]["deconv"]["bandwidth"] == {"mode": "fixed", "h": 2.5, "c_h": None}


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



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda out: PipelineConfig(inference_mode="wald"), "unknown inference mode 'wald'"),
        (
            lambda out: PipelineConfig.from_dict({"deconv": {"kernel": "gaussian"}}),
            "unknown kernel 'gaussian'",
        ),
        (
            lambda out: experiments.ExperimentSpec("figure1", out, reps=0),
            "replications must be >= 1",
        ),
        (
            lambda out: experiments.custom(experiments.ExperimentSpec("custom", out, reps=1)),
            "need a config document",
        ),
        (
            lambda out: experiments.custom(
                experiments.ExperimentSpec("custom", out, reps=1, custom_config={"model": "cubic"})
            ),
            "need model, n, and p",
        ),
    ],
    ids=["inference-mode", "kernel", "reps-0", "custom-no-document", "custom-no-n-p"],
)
def test_config_and_experiment_spec_reject_bad_input(tmp_path, call, message):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=message):
        call(str(out))
    assert not out.exists()

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


@pytest.mark.parametrize("shape", [(50, 100), (200, 5)], ids=["dual", "primal"])
def test_a_gram_matrix_that_overflows_fails_in_its_stage(shape):
    # At this scale X'X or XX' overflows, and the pilot's factorization
    # refuses it as a solver failure, which the pipeline names by stage.
    x, y, _, _ = _simulate("cubic", *shape, "uniform-sphere", np.random.SeedSequence(3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError, match=r"^\[pilot\]") as info:
            run_pipeline(Dataset(x * 1e160, y), PipelineConfig())
    assert isinstance(info.value.cause, SolverError)


def test_configs_check_seed_and_alpha_when_built():
    for seed in (-1, 1.5, "3", True, None):
        with pytest.raises(ConfigError, match="seed"):
            SplitConfig(seed=seed)
    assert SplitConfig(seed=np.uint32(7)).seed == 7
    # At 5e-324, the least subnormal, alpha / 2 rounds to 0.
    for alpha in (0.0, 1.0, -0.1, 2, float("nan"), 5e-324):
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
    done = _run_fresh(f"import sindex.{module}; from sindex.pilot import debias_index")
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
