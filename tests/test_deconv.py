"""Deconvolution kernel, bandwidth rule, grid regression, and link evaluation."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sindex import deconv
from sindex.deconv import (
    DeconvConfig,
    IndexEstimate,
    KERNELS,
    M0,
    KernelSpec,
    LinkEstimate,
    _MAX_EXPONENT,
    _MAX_PANEL_NODES,
    _gauss_legendre,
    _kernel_exponent,
    _kernel_panels,
    _panel_coefficients,
    _triweight_fourier,
    deconv_kernel_eval,
    default_grid,
    estimate_link,
    eval_link,
    nw_deconv_grid,
    select_bandwidth,
)
from sindex.errors import (
    BandwidthConstraintError,
    ConfigError,
    EmptyEstimateError,
    KernelOverflowError,
)
from sindex.models import CLOGLOG_LINK

rng = np.random.default_rng(202)


def test_kernel_at_zero_closed_form():
    # sigma = 0: K(0) = (1/pi) * int_0^1 (1-t^2)^3 dt = 16 / (35 pi).
    assert deconv_kernel_eval(0.0, h=0.5, varsigma=0.0) == pytest.approx(
        16 / (35 * np.pi), abs=1e-12
    )


def test_kernel_even():
    for u in (0.3, 1.7, 4.2):
        assert deconv_kernel_eval(u, 0.5, 0.2) == pytest.approx(
            deconv_kernel_eval(-u, 0.5, 0.2), abs=1e-14
        )


def test_kernel_integrates_to_one():
    xs = np.arange(-80.0, 80.0, 0.01)
    vals = deconv_kernel_eval(xs, h=0.5, varsigma=0.3)
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-3)


def _kernel_coefficients(h, varsigma, spec, omega):
    """Nodes t_k and coefficients psi_k of the composite rule with
    K(u) = sum_k psi_k cos(t_k u) for |u| <= omega, as deconv_kernel_eval
    builds them."""
    panels = _kernel_panels(h, varsigma, spec, omega)
    return _panel_coefficients(panels, h, varsigma, spec)


def _panel_reference(spec, c, nodes=1024):
    """Nodes t and coefficients psi of the kernel integral with exponent
    c t^2, by a 2 x nodes Gauss-Legendre rule split at 1/2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = np.concatenate([0.25 * (x + 1.0), 0.5 + 0.25 * (x + 1.0)])
    w = np.concatenate([0.25 * w, 0.25 * w])
    return t, w * spec.fourier(t) * np.exp(c * t * t) / np.pi


@pytest.mark.parametrize("label", ["triweight", "flattop"])
def test_kernel_rule_matches_panel_reference(label):
    # Relative to int phi exp(c t^2), the sized rule is within 1e-11 of the
    # reference at every phase up to omega.
    spec = KERNELS[label]
    worst = 0.0
    for c in (0.0, 0.5, 2.0, 10.0, 30.0, 100.0):
        t_ref, psi_ref = _panel_reference(spec, c)
        scale = psi_ref.sum()
        for omega in (0.0, 3.0, 17.0, 60.0, 150.0, 420.0, 1000.0):
            t, psi = _kernel_coefficients(1.0, np.sqrt(2.0 * c), spec, omega)
            u = np.linspace(0.0, omega, 500)
            got = np.cos(np.multiply.outer(u, t)) @ psi
            ref = np.cos(np.multiply.outer(u, t_ref)) @ psi_ref
            worst = max(worst, np.max(np.abs(got - ref)) / scale)
    assert worst <= 1e-11


def test_kernel_rule_size_is_capped():
    # A far evaluation point must not ask leggauss for 10^6 nodes.
    t, _ = _kernel_coefficients(0.5, 0.2, KERNELS["flattop"], 4e6)
    assert len(t) == 2 * 512
    vals = deconv_kernel_eval(np.array([0.0, 4e6]), 0.5, 0.2)
    assert np.all(np.isfinite(vals))


def _nw_ratio(t, psi, grid, w, y, h):
    """The NW ratio on the grid from kernel values summed point by point."""
    out = []
    for x in grid:
        k = psi @ np.cos(np.multiply.outer(t, (x - w) / h))
        out.append(k @ y / k.sum())
    return np.array(out)


def test_flattop_grid_closer_to_reference_than_single_256_panel():
    # table1's shape: n = 2000 logit responses, varsigma^2 about 0.12, theory
    # bandwidth, so c = 0.225 log n and omega near 40.
    n, varsigma2 = 2000, 0.12
    gen = np.random.default_rng(5)
    w = gen.standard_normal(n) + np.sqrt(varsigma2) * gen.standard_normal(n)
    y = (gen.random(n) < 1.0 / (1.0 + np.exp(-w))).astype(float)
    spec = KERNELS["flattop"]
    varsigma = np.sqrt(varsigma2)
    h = select_bandwidth(n, varsigma)
    c = (varsigma / h) ** 2 / 2.0
    cfg = DeconvConfig(grid=default_grid(-3.0, 3.0, 31), kernel=spec)
    raw = nw_deconv_grid(IndexEstimate(w=w, varsigma2=varsigma2), y, h, cfg)
    assert not np.any(np.isnan(raw))

    reference = _nw_ratio(*_panel_reference(spec, c, nodes=512), cfg.grid, w, y, h)
    x, wx = np.polynomial.legendre.leggauss(256)  # the former rule
    t_old = 0.5 * (x + 1.0)
    psi_old = 0.5 * wx * spec.fourier(t_old) * np.exp(c * t_old**2) / np.pi
    old = _nw_ratio(t_old, psi_old, cfg.grid, w, y, h)
    new_err = np.max(np.abs(raw - reference))
    old_err = np.max(np.abs(old - reference))
    assert new_err < old_err
    assert new_err <= 1e-12


def test_gauss_legendre_rules_are_symmetric_bit_for_bit():
    # nw_deconv_grid pairs the nodes m -+ d of each panel; that needs every
    # rule _panel_nodes can ask for to be exactly antisymmetric in its nodes
    # and symmetric in its weights.
    for nodes in range(8, _MAX_PANEL_NODES + 1, 8):
        x, wx = _gauss_legendre(nodes)
        assert len(x) == nodes
        assert np.array_equal(x, -x[::-1]), nodes
        assert np.array_equal(wx, wx[::-1]), nodes


#: Triweight window with a panel end at 0.3: two panels of unequal length.
SPLIT_TRIWEIGHT = KernelSpec(_triweight_fourier, "split", breaks=(0.3,))


@pytest.mark.parametrize("n", [64, 2000])
@pytest.mark.parametrize(
    "spec", [KERNELS["triweight"], KERNELS["flattop"], SPLIT_TRIWEIGHT], ids=lambda s: s.label
)
def test_nw_sums_match_long_double_rule(spec, n):
    # The grid ratio against a direct long-double evaluation of the same
    # quadrature rule, kernel value by kernel value, at the grid points with
    # a well-conditioned denominator.  table1's shape at n = 2000.
    varsigma2 = 0.12
    gen = np.random.default_rng(n + len(spec.breaks))
    z = gen.standard_normal(n)
    w = z + np.sqrt(varsigma2) * gen.standard_normal(n)
    y = (gen.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    h = select_bandwidth(n, np.sqrt(varsigma2))
    cfg = DeconvConfig(grid=default_grid(-3.0, 3.0, 31), kernel=spec)
    raw = nw_deconv_grid(IndexEstimate(w=w, varsigma2=varsigma2), y, h, cfg)

    omega = max(cfg.grid[-1] - w.min(), w.max() - cfg.grid[0]) / h
    t, psi = _kernel_coefficients(h, np.sqrt(varsigma2), spec, omega)
    t, psi = t.astype(np.longdouble), psi.astype(np.longdouble)
    wl, yl = w.astype(np.longdouble), y.astype(np.longdouble)
    num, den = [], []
    for x in cfg.grid:
        k = psi @ np.cos(np.multiply.outer(t, (np.longdouble(x) - wl) / np.longdouble(h)))
        num.append(k @ yl)
        den.append(k.sum())
    num, den = np.array(num), np.array(den)
    usable = np.abs(den) >= 1e-3 * np.abs(psi).sum() * n
    assert usable.mean() >= 0.5
    reference = (num[usable] / den[usable]).astype(float)
    err = np.max(np.abs(raw[usable] - reference)) / (y.max() - y.min())
    assert err <= 1e-12


def test_kernel_overflow_error():
    with pytest.raises(KernelOverflowError):
        deconv_kernel_eval(0.0, h=0.01, varsigma=1.0)
    # An exponent past the largest float is an overflow too, not a bare
    # OverflowError from the node count.
    with pytest.raises(KernelOverflowError):
        deconv_kernel_eval(0.0, h=1e-100, varsigma=1e150)
    w = np.linspace(-1.0, 1.0, 20)
    with pytest.raises(KernelOverflowError):
        nw_deconv_grid(IndexEstimate(w, 1.0), w, 0.01, DeconvConfig())
    # A NaN bandwidth is bad input, not an overflow.
    with pytest.raises(ConfigError, match="bandwidth must be positive"):
        nw_deconv_grid(IndexEstimate(w, 1.0), w, np.nan, DeconvConfig())


def test_bandwidth_fixed_passthrough():
    assert select_bandwidth(100, 0.5, mode="fixed", h=0.37) == 0.37
    with pytest.raises(ConfigError):
        select_bandwidth(100, 0.5, mode="fixed", h=None)


def test_fixed_bandwidth_yields_to_the_theory_bandwidth_past_the_overflow_exponent(
    monkeypatch,
):
    # With the guard at 8, h = 1 and varsigma = 4 sit exactly on it.
    monkeypatch.setattr(deconv, "_MAX_EXPONENT", 8.0)
    assert _kernel_exponent(1.0, 4.0) == 8.0
    assert select_bandwidth(100, 4.0, "fixed", 1.0) == 1.0
    above = np.nextafter(4.0, np.inf)
    assert select_bandwidth(100, above, "fixed", 1.0) == select_bandwidth(100, above)
    assert select_bandwidth(100, above, "fixed", 1.0, c_h=0.01) == select_bandwidth(
        100, above, c_h=0.01
    )
    # At the shipped guard: the last varsigma whose exponent at h = 2.5 is
    # at most _MAX_EXPONENT keeps h, and the next float does not.
    monkeypatch.undo()
    varsigma = 2.5 * np.sqrt(2.0 * _MAX_EXPONENT)
    while _kernel_exponent(2.5, varsigma) > _MAX_EXPONENT:
        varsigma = np.nextafter(varsigma, 0.0)
    assert select_bandwidth(250, varsigma, "fixed", 2.5) == 2.5
    above = np.nextafter(varsigma, np.inf)
    h = select_bandwidth(250, above, "fixed", 2.5)
    assert h == select_bandwidth(250, above) == 1.0 / np.sqrt(0.45 / above ** 2 * np.log(250))
    # The theory bandwidth keeps the kernel within its guard.
    assert _kernel_exponent(h, above) < np.log(250) / 4.0


@pytest.mark.parametrize("varsigma", [np.inf, np.nan])
@pytest.mark.parametrize("mode, h", [("fixed", 2.5), ("theory", None)])
def test_non_finite_noise_scale_overflows_the_kernel(mode, h, varsigma):
    w = np.linspace(-1.0, 1.0, 20)
    config = DeconvConfig(bandwidth_mode=mode, h=h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelOverflowError):
            select_bandwidth(100, varsigma, mode, h)
        with pytest.raises(KernelOverflowError):
            estimate_link(IndexEstimate(w, varsigma ** 2), w, config)


def test_bandwidth_theory_formula():
    h = select_bandwidth(3, 0.1, mode="theory", c_h=1.0)
    assert h == pytest.approx(1 / np.sqrt(np.log(3)))


def test_bandwidth_constraint_violation():
    # M0 = 1, varsigma = 1, c_h = 0.6: 2 * 1 * 1 * 0.6 = 1.2 >= 1.
    with pytest.raises(BandwidthConstraintError):
        select_bandwidth(100, 1.0, mode="theory", c_h=0.6)


def test_bandwidth_default_constant_margin():
    varsigma = 0.8
    c_h = 0.45 / (M0 * varsigma) ** 2
    assert 2 * M0 ** 2 * varsigma ** 2 * c_h == pytest.approx(0.9)
    select_bandwidth(100, varsigma, mode="theory")  # must not raise


def test_nw_constant_response():
    w = rng.standard_normal(80)
    est = IndexEstimate(w=w, varsigma2=0.04)
    cfg = DeconvConfig(grid=default_grid(-2, 2, 41), bandwidth_mode="fixed", h=0.4)
    raw = nw_deconv_grid(est, np.full(80, 3.25), 0.4, cfg)
    assert not np.any(np.isnan(raw))
    assert np.allclose(raw, 3.25)


def test_nw_noise_free_matches_plain_nw_oracle():
    # sigma = 0 reduces to an ordinary Nadaraya-Watson estimator whose kernel
    # is the inverse Fourier transform of phi_K (adaptive-quadrature oracle).
    n, h = 120, 0.45
    w = rng.standard_normal(n)
    y = np.sin(w) + 0.1 * rng.standard_normal(n)
    est = IndexEstimate(w=w, varsigma2=0.0)
    cfg = DeconvConfig(grid=default_grid(-1.5, 1.5, 31), bandwidth_mode="fixed", h=h)
    raw = nw_deconv_grid(est, y, h, cfg)

    def kernel(u):
        val, _ = quad(lambda t: (1 - t * t) ** 3 * np.cos(t * u), 0.0, 1.0, limit=200)
        return val / np.pi

    for i, x in enumerate(cfg.grid):
        k = np.array([kernel((x - wi) / h) for wi in w])
        assert raw[i] == pytest.approx(k @ y / k.sum(), abs=1e-6)


def test_far_grid_point_masked():
    w = np.zeros(50)
    est = IndexEstimate(w=w, varsigma2=0.0)
    grid = np.array([-60.0, 0.0, 60.0])
    cfg = DeconvConfig(grid=grid, bandwidth_mode="fixed", h=0.2)
    raw = nw_deconv_grid(est, np.ones(50), 0.2, cfg)
    assert np.array_equal(np.isnan(raw), [True, False, True])


def test_all_invalid_raises():
    # every grid point sits ~80 units from the data: negligible mass
    est = IndexEstimate(w=np.full(30, 80.0), varsigma2=0.0)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.2)
    with pytest.raises(EmptyEstimateError):
        nw_deconv_grid(est, np.ones(30), 0.2, cfg)



def test_estimate_link_raises_when_no_grid_value_is_in_range(monkeypatch):
    # Values far outside the response hull are as invalid as masked ones.
    def far(_index, _y, _h, cfg):
        return np.full(len(cfg.grid), 1e9)

    monkeypatch.setattr(deconv, "nw_deconv_grid", far)
    est = IndexEstimate(w=np.linspace(-1.0, 1.0, 20), varsigma2=0.0)
    with pytest.raises(EmptyEstimateError, match="no grid point carries a usable estimate"):
        estimate_link(est, np.linspace(0.0, 1.0, 20), DeconvConfig())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: KernelSpec(_triweight_fourier, "k", breaks=(0.5, 0.5)), "increase strictly"),
        (lambda: DeconvConfig(bandwidth_mode="auto"), "'fixed' or 'theory'"),
        (lambda: select_bandwidth(1, 0.5), "theory bandwidth needs n >= 2"),
        (
            lambda: nw_deconv_grid(
                IndexEstimate(np.zeros(3), 0.0), np.zeros(2), 1.0, DeconvConfig()
            ),
            "index and response lengths differ",
        ),
    ],
    ids=["repeated-break", "unknown-bandwidth-mode", "theory-n-1", "length-mismatch"],
)
def test_deconv_rejects_bad_input(call, message):
    with pytest.raises(ConfigError, match=message):
        call()

def test_estimate_link_monotone_with_floored_derivative():
    w = rng.standard_normal(300)
    y = np.tanh(w) + 0.2 * rng.standard_normal(300)
    est = IndexEstimate(w=w, varsigma2=0.05)
    link = estimate_link(est, y, DeconvConfig(bandwidth_mode="fixed", h=0.4))
    assert np.all(np.diff(link.values) >= 0)
    assert np.all(link.deriv >= link.deriv_floor)


def test_estimate_link_constant_response():
    w = rng.standard_normal(100)
    est = IndexEstimate(w=w, varsigma2=0.02)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.5)
    link = estimate_link(est, np.full(100, -1.5), cfg)
    assert np.allclose(link.values, -1.5)
    assert np.allclose(link.deriv, cfg.deriv_floor)


def test_constant_response_gives_the_constant_link():
    # Raw values round off a constant response by an ulp or so; the range
    # check must keep them, on a fine grid and on a 2-point one, where a
    # rejected value could leave no usable grid point.
    draws = np.random.default_rng(3)
    fine = DeconvConfig(bandwidth_mode="fixed", h=0.5)
    cases = [(IndexEstimate(draws.standard_normal(200), 0.02), fine)]
    two = DeconvConfig(grid=default_grid(-1.0, 1.0, 2))
    cases += [
        (IndexEstimate(draws.standard_normal(50), float(draws.uniform(0.0, 0.5))), two)
        for _ in range(40)
    ]
    for index, cfg in cases:
        link = estimate_link(index, np.full(len(index.w), 0.1), cfg)
        assert np.max(np.abs(link.values - 0.1)) <= 1e-12 * 0.1


def test_estimate_link_permutation_invariant():
    w = rng.standard_normal(150)
    y = w + 0.3 * rng.standard_normal(150)
    est = IndexEstimate(w=w, varsigma2=0.04)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.4)
    link = estimate_link(est, y, cfg)
    perm = rng.permutation(150)
    link_p = estimate_link(IndexEstimate(w=w[perm], varsigma2=0.04), y[perm], cfg)
    assert np.max(np.abs(link.values - link_p.values)) < 1e-9


def test_estimate_link_loss_decreases_with_n(fig2_result):
    manifest, _, _ = fig2_result
    losses = manifest["summary"]["mean_loss"]
    assert losses[512] < losses[64]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(20, 200),
    # A subnormal varsigma2 overflows the theory constant c_h = 0.45 /
    # varsigma2, and select_bandwidth then reports its constraint broken.
    varsigma2=st.floats(0.0, 0.5, allow_subnormal=False),
    a=st.floats(-10.0, 10.0),
    b=st.floats(0.01, 100.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_link_is_affine_equivariant(n, varsigma2, a, b, seed):
    # y -> a + b y with b > 0 maps the link values to a + b values, for each
    # monotonizer and kernel at the theory bandwidth.
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(n)
    w = z + np.sqrt(varsigma2) * gen.standard_normal(n)
    y = np.tanh(z) + 0.3 * gen.standard_normal(n)
    est = IndexEstimate(w=w, varsigma2=varsigma2)
    scale = abs(a) + b * np.max(np.abs(y))
    for monotonizer in ("naive", "rearrange"):
        for kernel in KERNELS.values():
            cfg = DeconvConfig(kernel=kernel, monotonizer=monotonizer)
            values = estimate_link(est, y, cfg).values
            moved = estimate_link(est, a + b * y, cfg).values
            assert np.max(np.abs(moved - (a + b * values))) <= 1e-8 * scale


def test_eval_link_grid_nodes_exact():
    w = rng.standard_normal(200)
    y = w ** 3 + rng.standard_normal(200)
    est = IndexEstimate(w=w, varsigma2=0.02)
    link = estimate_link(est, y, DeconvConfig(bandwidth_mode="fixed", h=0.5))
    for k in (0, 57, 150, 300):
        g, _ = eval_link(link, link.grid[k])
        assert g == link.values[k]


def test_reported_derivative_is_the_fitted_one():
    # link.csv and report.json carry the derivative the surrogate fit uses.
    gen = np.random.default_rng(8)
    w = gen.standard_normal(200)
    y = np.where(w > 0.5, 1.0, 0.0) + 0.1 * gen.standard_normal(200)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.3)
    link = estimate_link(IndexEstimate(w=w, varsigma2=0.02), y, cfg)
    assert np.array_equal(eval_link(link, link.grid)[1], link.deriv)
    assert np.any(link.deriv == link.deriv_floor)


def test_link_antiderivative_integrates_eval_link():
    w = np.random.default_rng(9).standard_normal(200)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.5)
    link = estimate_link(IndexEstimate(w=w, varsigma2=0.02), w ** 3, cfg)
    for a, b in ((-5.0, -3.5), (-3.2, 1.7), (0.3, 2.9), (2.5, 6.0)):
        # The trapezoid rule is exact for ghat between consecutive nodes.
        nodes = link.grid[(link.grid > a) & (link.grid < b)]
        ts = np.concatenate(([a], nodes, [b]))
        reference = np.trapezoid(eval_link(link, ts)[0], ts)
        big_a, big_b = link.evaluate(np.array([a, b]))[0]
        exact = big_b - big_a
        assert exact == pytest.approx(reference, rel=1e-12, abs=1e-12)


def test_evaluate_agrees_bitwise_with_eval_link():
    w = np.random.default_rng(10).standard_normal(200)
    cfg = DeconvConfig(bandwidth_mode="fixed", h=0.4)
    link = estimate_link(IndexEstimate(w=w, varsigma2=0.02), np.tanh(w), cfg)
    probe = np.concatenate((np.linspace(-7.0, 7.0, 1001), link.grid))
    _, g, gp = link.evaluate(probe)
    g_ref, gp_ref = eval_link(link, probe)
    assert np.array_equal(g, g_ref) and np.array_equal(gp, gp_ref)
    assert eval_link(link, probe[7]) == (float(g[7]), float(gp[7]))


def _flat_link(grid):
    """A LinkEstimate of value 0 on grid."""
    m = len(grid)
    return LinkEstimate(
        grid=grid,
        values=np.zeros(m),
        deriv=np.full(m, 1e-3),
        varsigma2=0.1,
        h=0.3,
        window=tuple(np.ravel(grid)[[0, -1]]),
        deriv_floor=1e-3,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 1001),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.integers(0, 2 ** 32 - 1),
)
def test_cell_lookup_is_a_binary_search(m, a, width, seed):
    # The link finds each point's cell by arithmetic on its equispaced
    # grid; it must agree with searchsorted at and one rounding step on each
    # side of every node, at +-inf, at nan (sorted last) and in between.
    grid = default_grid(a, a + width, m)
    between = np.random.default_rng(seed).uniform(a - width, a + 2.0 * width, 100)
    x = np.concatenate(
        (
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            [np.inf, -np.inf, np.nan],
            between,
        )
    )
    link = _flat_link(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        positions = link._positions(x)
    assert np.array_equal(positions, np.searchsorted(grid, x, "right"))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 1001),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([-np.inf, np.inf]),
)
def test_link_estimate_refuses_a_grid_that_is_not_default(m, a, width, where, side):
    # The cell lookup holds on default_grid(a, b, m) alone, so a link on
    # any other grid, here one interior node off by one rounding step, is
    # refused when it is built.
    grid = default_grid(a, a + width, m)
    _flat_link(grid.copy())
    k = 1 + int(where * (m - 2))
    grid[k] = np.nextafter(grid[k], side)
    with pytest.raises(ConfigError, match="default_grid"):
        _flat_link(grid)


@pytest.mark.parametrize(
    "grid",
    [
        [0.0, 1.0, 3.0],
        [3.0, 0.0],
        [1.0],
        [[-1.0, 0.0, 1.0]],
        [0.0, 0.0],
        default_grid(1.0, 1.0 + 1e-14, 301),
        default_grid(0.0, 1e-310, 11),
    ],
    ids=["uneven", "decreasing", "one node", "2-d", "empty window", "merged nodes", "subnormal"],
)
def test_malformed_grids_are_refused(grid):
    # The last two are default grids on which rounding merged nodes, or
    # whose step is subnormal: neither the cell lookup nor the slopes hold.
    with pytest.raises(ConfigError, match="default_grid"):
        _flat_link(np.array(grid))
    with pytest.raises(ConfigError, match="default_grid"):
        DeconvConfig(grid=np.array(grid))


def test_eval_link_extrapolation_hand_trace():
    w = rng.standard_normal(200)
    y = 2 * w + rng.standard_normal(200)
    est = IndexEstimate(w=w, varsigma2=0.01)
    link = estimate_link(est, y, DeconvConfig(bandwidth_mode="fixed", h=0.4))
    slopes = np.diff(link.values) / np.diff(link.grid)
    hi = max(slopes[-1], link.deriv_floor)
    g, gp = eval_link(link, link.grid[-1] + 1.0)
    assert g == pytest.approx(link.values[-1] + hi * 1.0, rel=1e-12)
    assert gp == pytest.approx(hi)
    lo = max(slopes[0], link.deriv_floor)
    g, gp = eval_link(link, link.grid[0] - 2.0)
    assert g == pytest.approx(link.values[0] - lo * 2.0, rel=1e-12)
    assert gp == pytest.approx(lo)


def test_eval_link_continuous_nondecreasing_floor():
    w = rng.standard_normal(250)
    y = np.where(w > 0, 1.0, 0.0)
    est = IndexEstimate(w=w, varsigma2=0.03)
    link = estimate_link(est, y, DeconvConfig(bandwidth_mode="fixed", h=0.35))
    probe = np.linspace(-8, 8, 4001)
    g, gp = eval_link(link, probe)
    assert np.all(np.diff(g) >= -1e-12)
    assert np.max(np.abs(np.diff(g))) < 0.2  # no jumps on a fine probe
    assert np.all(gp >= link.deriv_floor)


def test_noise_free_cloglog_sup_error():
    # Known-index Bernoulli draws: the monotonized estimate tracks the true
    # link uniformly on the window at n = 4096.
    for seed in (17, 99, 7):
        gen = np.random.default_rng(seed)
        t = gen.standard_normal(4096)
        y = (gen.random(4096) < CLOGLOG_LINK(t)).astype(float)
        est = IndexEstimate(w=t, varsigma2=0.0)
        link = estimate_link(est, y, DeconvConfig(bandwidth_mode="fixed", h=0.2))
        assert np.max(np.abs(link.values - CLOGLOG_LINK(link.grid))) < 0.1


def test_flattop_window_precise_near_one():
    # The taper vanishes like (1 - u)^3 at t = 1; compare with exact
    # rational arithmetic at the same binary inputs.
    phi = KERNELS["flattop"].fourier
    for t in (0.999, 0.9999):
        u = (Fraction(t) - Fraction(1, 2)) * 2
        exact = 1 - u ** 3 * (6 * u * u - 15 * u + 10)
        assert abs(Fraction(float(phi(t))) - exact) <= Fraction(1, 10 ** 14) * exact


def test_flattop_window_shape():
    phi = KERNELS["flattop"].fourier
    assert phi(0.0) == 1.0
    assert phi(0.49) == 1.0
    assert phi(1.0) == 0.0
    assert phi(1.2) == 0.0
    ts = np.linspace(-1, 1, 101)
    assert np.all(np.diff(phi(ts[ts >= 0])) <= 1e-12)
