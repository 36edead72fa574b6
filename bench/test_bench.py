"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import sindex.deconv  # noqa: E402
import sindex.pipeline  # noqa: E402
from sindex import (  # noqa: E402
    Dataset,
    LinkEstimate,
    eval_link,
    run_pipeline,
)
from sindex.experiments import _simulate  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, fit_metrics  # noqa: E402


def test_link_eval_agrees_with_eval_link():
    rng = np.random.default_rng(0)
    grid = np.linspace(-3.0, 3.0, 61)
    values = np.sort(rng.normal(size=61))
    values[:3] = values[0]  # flat left end: the extrapolation slope is floored
    values[20:25] = values[20]  # flat cells: the derivative is floored
    est = LinkEstimate(
        grid=grid,
        values=values,
        deriv=np.ones(61),
        varsigma2=0.1,
        h=0.3,
        window=(-3.0, 3.0),
        deriv_floor=1e-3,
    )
    t = np.concatenate(
        [rng.uniform(-3, 3, 500), rng.uniform(-9, -3, 100), rng.uniform(3, 9, 100), grid]
    )
    g_ref, gp_ref = eval_link(est, t)
    g, gp = checks.link_eval(grid, values, 1e-3, t)
    np.testing.assert_allclose(g, g_ref, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(gp, gp_ref)


def _small_fit():
    """figure3's configuration at n=200, p=400."""
    x, y, _, _ = _simulate("cloglog", 200, 400, "uniform-sphere", np.random.SeedSequence(3))
    return x, y, run_pipeline(Dataset(x, y), workloads.Fig3Wide.config)


def test_stationarity_accepts_refit_and_rejects_perturbed_beta():
    x, y, report = _small_fit()
    link = report.link
    args = (link.grid, link.values, link.deriv_floor, 0.1)
    assert checks.stationarity(x, y, report.coef.beta, *args) is None
    perturbed = report.coef.beta.copy()
    perturbed[0] += 1e-3
    assert checks.stationarity(x, y, perturbed, *args) is not None


def test_ridge_pilot_check_rejects_other_lambda():
    x, y, report = _small_fit()
    assert checks.ridge_pilot(x, y, 1.0, report.pilot.beta) is None
    assert checks.ridge_pilot(x, y, 1.01, report.pilot.beta) is not None


class AlteringTracer(Tracer):
    """A faulty tracer whose coefficient-fit wrapper changes the result."""

    def _call(self, key, fn, args, kwargs):
        result = super()._call(key, fn, args, kwargs)
        if key == "coef":
            result = dataclasses.replace(result, beta=result.beta * (1.0 + 1e-15))
        return result


@pytest.mark.parametrize("tracer_cls, mismatches", [(Tracer, 0), (AlteringTracer, 1)])
def test_traced_comparison_detects_altered_return_value(tracer_cls, mismatches):
    original = sindex.pipeline.fit_coefficients
    wl = workloads.Table1Tall(seed=0, tracer=tracer_cls())
    item = next(wl.batches(0))[0]
    wl.play_batch([item])
    assert wl.mismatches == mismatches
    assert wl.attempted == 1 and len(wl.op_ms) == 1
    assert sindex.pipeline.fit_coefficients is original
    (record,) = wl.tracer.fits
    assert record.ms["coef"] > 0 and record.counts["coef.newton_iters"] >= 1
    assert record.ms["pipeline"] >= record.ms["coef"] + record.ms["link"]


def test_missing_wrapped_name_is_reported_and_its_metric_left_out(monkeypatch):
    monkeypatch.delattr(sindex.deconv, "nw_deconv_grid")
    tracer = Tracer()
    with tracer.installed(), tracer.record():
        pass
    assert tracer.missing == ["sindex.deconv.nw_deconv_grid"]
    metrics = fit_metrics(tracer)
    assert "link.nw_ms" not in metrics and "link.ms" in metrics


def test_calibration_flags_wrong_scale():
    rng = np.random.default_rng(1)
    t = rng.standard_normal(20000)
    covered = np.abs(t) <= 1.959964
    assert checks.calibration(t, covered, 0.05)[1] is None
    assert checks.calibration(1.3 * t, np.abs(1.3 * t) <= 1.959964, 0.05)[1] is not None


def test_efficiency_flags_inefficient_refit():
    rng = np.random.default_rng(2)
    mle = 0.16 + 0.05 * rng.standard_normal(200)
    assert checks.efficiency(mle + 0.01 * rng.standard_normal(200), mle)[1] is None
    assert checks.efficiency(1.3 * mle, mle)[1] is not None

