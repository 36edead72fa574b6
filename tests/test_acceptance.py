"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a passing suite.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

import sindex as sx
from sindex._linalg import adjustment_trace
from sindex.deconv import DeconvConfig, IndexEstimate, default_grid
from sindex.models import (
    CLOGLOG_LINK,
    Dataset,
    DesignSpec,
    IDENTITY_LINK,
    LOGISTIC_LINK,
    generate_responses,
    model_lookup,
    sample_coefficients,
    sample_design,
)
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline
from sindex.surrogate import fit_coefficients, surrogate_objective


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_index_normality(fig1_result):
    manifest, elapsed, _ = fig1_result
    checks = []
    for model_name in ("cubic", "xsqrt"):
        stats = manifest["summary"][model_name]
        checks.append(
            (
                model_name,
                stats["ks_distance"] < 0.08
                and -0.15 <= stats["mean"] <= 0.15
                and 0.8 <= stats["variance"] <= 1.2,
                f"KS={stats['ks_distance']:.4f} mean={stats['mean']:+.4f} "
                f"var={stats['variance']:.4f}",
            )
        )
    ok = all(c[1] for c in checks) and elapsed < 180
    detail = "; ".join(f"{m}: {d}" for m, _, d in checks) + f"; {elapsed:.0f}s"
    report(1, "index normality", ok, detail)


def test_criterion_2_link_consistency(fig2_result):
    manifest, elapsed, _ = fig2_result
    losses = manifest["summary"]["mean_loss"]
    ns = sorted(losses)
    path = [losses[n] for n in ns]
    decrease = (path[0] - path[-1]) / path[0]
    backward_steps = sum(1 for a, b in zip(path, path[1:]) if b > a)
    ok = decrease >= 0.5 and backward_steps <= 1 and elapsed < 300
    detail = (
        " ".join(f"{n}:{losses[n]:.4f}" for n in ns)
        + f"; decrease={decrease:.1%}, non-monotone={backward_steps}, {elapsed:.0f}s"
    )
    report(2, "link consistency", ok, detail)


def test_criterion_3_marginal_normality_coverage(fig3_result):
    manifest, elapsed, _ = fig3_result
    summary = manifest["summary"]
    ok = (
        0.91 <= summary["coverage"] <= 0.985
        and summary["ks_distance"] < 0.08
        and elapsed < 300
    )
    detail = (
        f"coverage={summary['coverage']:.3f} KS={summary['ks_distance']:.4f} "
        f"mean={summary['t_mean']:+.3f} var={summary['t_variance']:.3f} {elapsed:.0f}s"
    )
    report(3, "marginal normality and coverage", ok, detail)


def test_criterion_4_efficiency_table(table1_result):
    manifest, elapsed, _ = table1_result
    summary = manifest["summary"]
    mle = summary["logit"]["logit-mle"]["mean"]
    prop_logit = summary["logit"]["proposed"]["mean"]
    rel = abs(prop_logit - mle) / abs(mle)
    ls_pw = summary["piecewise"]["ls"]["mean"]
    prop_pw = summary["piecewise"]["proposed"]["mean"]
    ls_cp = summary["cubic+"]["ls"]["mean"]
    prop_cp = summary["cubic+"]["proposed"]["mean"]
    ratio = ls_cp / prop_cp
    ok = rel <= 0.10 and prop_pw < ls_pw and ratio >= 3.0 and elapsed < 600
    detail = (
        f"logit rel={rel:.3f}; piecewise {prop_pw:.3f}<{ls_pw:.3f}; "
        f"cubic+ ratio={ratio:.1f}; {elapsed:.0f}s"
    )
    report(4, "efficiency table", ok, detail)


def test_criterion_5_oracle_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    details = []

    # surrogate with identity link = least squares
    x = rng.standard_normal((80, 10))
    y = x @ rng.normal(size=10) + 0.3 * rng.standard_normal(80)
    fit = fit_coefficients(x, y, IDENTITY_LINK)
    gap_ls = float(np.max(np.abs(fit.beta - np.linalg.lstsq(x, y, rcond=None)[0])))
    details.append(f"identity-vs-LS {gap_ls:.1e}")

    # surrogate with logistic link = logistic MLE via independent IRLS
    t = x @ (0.4 * rng.normal(size=10))
    yb = (rng.random(80) < expit(t)).astype(float)
    fit_l = fit_coefficients(x, yb, LOGISTIC_LINK)
    b = np.zeros(10)
    for _ in range(200):
        eta = x @ b
        mu = expit(eta)
        w = np.maximum(mu * (1 - mu), 1e-12)
        z = eta + (yb - mu) / w
        b_new = np.linalg.solve(x.T @ (w[:, None] * x), x.T @ (w * z))
        if np.max(np.abs(b_new - b)) < 1e-13:
            b = b_new
            break
        b = b_new
    gap_irls = float(np.max(np.abs(fit_l.beta - b)))
    details.append(f"logistic-vs-IRLS {gap_irls:.1e}")

    # the adjustment trace v with unit weights = 1 - kappa
    gap_v = abs(adjustment_trace(x, np.ones(80), 0.0) / 80 - (1 - 10 / 80))
    details.append(f"vhat-unit {gap_v:.1e}")

    # deconvolution at sigma = 0 = plain Nadaraya-Watson (quadrature kernel)
    w_idx = rng.standard_normal(100)
    y_nw = np.sin(w_idx) + 0.1 * rng.standard_normal(100)
    est = IndexEstimate(w=w_idx, varsigma2=0.0)
    h = 0.5
    cfg = DeconvConfig(grid=default_grid(-1.5, 1.5, 21), bandwidth_mode="fixed", h=h)
    raw = sx.nw_deconv_grid(est, y_nw, h, cfg)

    def kernel(u):
        val, _ = quad(lambda s: (1 - s * s) ** 3 * np.cos(s * u), 0.0, 1.0, limit=200)
        return val / np.pi

    direct = []
    for xg in cfg.grid:
        k = np.array([kernel((xg - wi) / h) for wi in w_idx])
        direct.append(k @ y_nw / k.sum())
    gap_nw = float(np.max(np.abs(raw - np.array(direct))))
    details.append(f"deconv-vs-NW {gap_nw:.1e}")

    # censored adjustments with an all-covering window = uncensored, exactly
    beta = 0.3 * rng.normal(size=10)
    y_lin = x @ beta + rng.standard_normal(80)
    z = x @ beta
    window = (z.min() - 1, z.max() + 1)
    plain = sx.adjust_inferential(x, y_lin, beta, IDENTITY_LINK)
    censored = sx.adjust_inferential(x, y_lin, beta, IDENTITY_LINK, window=window)
    exact = plain == censored
    details.append(f"censored-exact {exact}")

    elapsed = time.perf_counter() - start
    ok = (
        gap_ls < 1e-8
        and gap_irls < 1e-6
        and gap_v < 1e-10
        and gap_nw < 1e-6
        and exact
        and elapsed < 30
    )
    report(5, "oracle equivalences", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_numerical_properties(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(616)
    details = []

    # gradient vs central differences on 20 random instances
    worst = 0.0
    for _ in range(20):
        n, p = int(rng.integers(20, 60)), int(rng.integers(2, 8))
        x = rng.standard_normal((n, p))
        yb = (rng.random(n) < 0.5).astype(float)
        b = 0.3 * rng.normal(size=p)
        _, grad, _ = surrogate_objective(b, x, yb, LOGISTIC_LINK, 0.2)
        fd = np.zeros(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = 1e-6
            vp, _, _ = surrogate_objective(b + e, x, yb, LOGISTIC_LINK, 0.2)
            vm, _, _ = surrogate_objective(b - e, x, yb, LOGISTIC_LINK, 0.2)
            fd[j] = (vp - vm) / 2e-6
        worst = max(worst, float(np.max(np.abs(fd - grad)) / np.max(np.abs(grad))))
    details.append(f"grad-FD rel {worst:.1e}")

    # kernel normalization across a (varsigma, h) sweep inside the constraint
    xs = np.arange(-80.0, 80.0, 0.01)
    worst_mass = 0.0
    for varsigma in (0.0, 0.2, 0.5, 0.8):
        for h in (0.35, 0.5, 0.8):
            c_h = 1.0 / (h * h * np.log(1000))
            if 2 * varsigma ** 2 * c_h >= 1.0:
                continue  # outside the stability constraint
            mass = np.trapezoid(sx.deconv_kernel_eval(xs, h, varsigma), xs)
            worst_mass = max(worst_mass, abs(mass - 1.0))
    details.append(f"kernel mass dev {worst_mass:.1e}")

    # monotonizer idempotence and sup-error non-expansion on 1000 grids
    from sindex.deconv import MONOTONIZERS

    mono_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 25))
        ref = np.sort(rng.standard_normal(m))
        noisy = ref + rng.normal(scale=0.5, size=m)
        base = np.max(np.abs(noisy - ref))
        for op in MONOTONIZERS.values():
            out = op(noisy)
            mono_ok &= bool(np.array_equal(op(out), out))
            mono_ok &= bool(np.max(np.abs(out - ref)) <= base + 1e-12)
    details.append(f"monotonizers {'ok' if mono_ok else 'violated'}")

    # rotation invariance of the oracle parameters
    rot_ok = True
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        beta = rng.normal(size=7)
        beta_hat = rng.normal(size=7)
        a = sx.oracle_params(beta_hat, beta)
        b = sx.oracle_params(q @ beta_hat, q @ beta)
        rot_ok &= abs(a.mu - b.mu) < 1e-10 and abs(a.sigma - b.sigma) < 1e-10
    details.append(f"rotation {'ok' if rot_ok else 'violated'}")

    # bit-identical pipeline reruns under a fixed seed
    spec = DesignSpec.identity(40)
    seeds = np.random.SeedSequence(123).spawn(3)
    beta = sample_coefficients(40, "uniform-sphere", spec, seeds[0])
    x = sample_design(200, spec, seeds[1])
    y = generate_responses(x, beta, model_lookup("cloglog"), seeds[2])
    config = PipelineConfig(split=SplitConfig(seed=2))
    r1 = run_pipeline(Dataset(x, y), config, design=spec)
    r2 = run_pipeline(Dataset(x, y), config, design=spec)
    identical = r1.to_json() == r2.to_json()
    details.append(f"rerun identical {identical}")

    elapsed = time.perf_counter() - start
    ok = (
        worst < 1e-5
        and worst_mass < 1e-3
        and mono_ok
        and rot_ok
        and identical
        and elapsed < 60
    )
    report(6, "numerical properties", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_7_adjustment_consistency(adjustment_errors_ridge):
    (mu_err, s2_err), elapsed = adjustment_errors_ridge
    ok = mu_err < 0.08 and s2_err < 0.1 and elapsed < 180
    report(
        7,
        "adjustment consistency",
        ok,
        f"|mu_hat-mu_n|={mu_err:.4f} |s2_hat-s_n2|={s2_err:.4f} {elapsed:.0f}s",
    )
