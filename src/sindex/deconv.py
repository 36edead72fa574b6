"""The link estimate: deconvolution kernel regression on a grid, made
monotone, with a floored derivative.

The index estimates carry Gaussian noise of scale varsigma, so the link is
recovered by Nadaraya-Watson smoothing with a deconvolution kernel whose
Fourier transform divides out the Gaussian characteristic function:

    K(u) = (1/pi) * int_0^M0 cos(t u) phi_K(t) exp(t^2 varsigma^2 / (2 h^2)) dt.

The integral is a composite Gauss-Legendre rule: one panel between
consecutive breaks of the kernel's Fourier window (none for triweight, 1/2
for flat-top, where its taper starts), so every panel integrates a smooth
function.  Each panel's node count comes from the largest phase the sums
see, omega = max |x - W| / h, and from the exponent c = M0^2 varsigma^2 /
(2 h^2), by a rule measured to keep the sums within 1e-11 of the exact
integral (`_panel_nodes`).  The kernel is a sum of waves
exp(i t (x - W) / h) over the quadrature nodes t, so the data enter the
grid sums only through Z(t) = sum_i (y_i, 1) exp(i t W_i / h), and each
grid value is Re(exp(-i t x / h) Z(t)) summed over nodes.  Gauss-Legendre
nodes are symmetric about each panel's midpoint m, and
exp(i (m -+ d) W) = exp(i m W) (cos dW -+ i sin dW), so the sums at the
nodes m -+ d follow from one wave per panel midpoint and one per offset d,
not one per node; panels of equal length share the offsets.

A running maximum or the rearrangement, which sorts the values of an
equispaced grid (Chernozhukov, Fernandez-Val and Galichon, 2009), makes the
grid values monotone.
"""

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    BandwidthConstraintError,
    ConfigError,
    EmptyEstimateError,
    KernelOverflowError,
)

_MAX_EXPONENT = 700.0  # exp overflow guard for the kernel integrand
_DENOM_TOL = 1e-8  # grid points with |kernel mass| below this * n are masked
# Cap on the nodes of one quadrature panel.  It bounds the cost of leggauss
# (O(n^2) memory) and the nodes x n arrays of the grid sums; the 1e-11 rule
# holds up to omega * panel length of about 1600.
_MAX_PANEL_NODES = 512

#: Monotonizers of the filled grid values, by their config name.
MONOTONIZERS = {"naive": np.maximum.accumulate, "rearrange": np.sort}


@dataclass(frozen=True)
class IndexEstimate:
    """Debiased index values W_i and the noise ratio sigma^2/mu^2 that
    parameterizes the deconvolution kernel."""

    w: np.ndarray
    varsigma2: float


def _triweight_fourier(t):
    t = np.asarray(t, dtype=float)
    u = 1.0 - t * t
    return np.where(np.abs(t) <= 1.0, u * u * u, 0.0)


def _flattop_fourier(t):
    # Flat-top window: identity below 1/2, quintic smoothstep taper to zero
    # at 1.  Passes every frequency under 1/(2h) unattenuated, so the kernel
    # has vanishing moments of all orders (no smoothing bias on smooth
    # links); the C^2 taper keeps the kernel tails integrable enough that
    # thin-data grid edges stay usable.  The window 1 - u^3 (6u^2 - 15u + 10)
    # is evaluated as (1 - u)^3 (6u^2 + 3u + 1), which keeps its relative
    # precision as it vanishes at t = 1.
    t = np.abs(np.asarray(t, dtype=float))
    u = np.clip((t - 0.5) / 0.5, 0.0, 1.0)
    v = 1.0 - u
    return np.where(t <= 1.0, v * v * v * (u * (6.0 * u + 3.0) + 1.0), 0.0)


#: Bound M0 of every kernel's Fourier support [-M0, M0], the M0 of the
#: bandwidth constraint 2 M0^2 varsigma^2 c_h < 1.
M0 = 1.0


@dataclass(frozen=True)
class KernelSpec:
    """Kernel given through its compactly supported Fourier transform on
    [-M0, M0]; `breaks` lists the points of (0, M0) where that transform is
    not smooth, which the quadrature uses as panel ends."""

    fourier: Callable[[np.ndarray], np.ndarray]
    label: str
    breaks: Tuple[float, ...] = ()

    def __post_init__(self):
        edges = (0.0, *self.breaks, M0)
        if any(a >= b for a, b in zip(edges[:-1], edges[1:])):
            raise ConfigError("kernel breaks must increase strictly inside (0, M0)")


#: Triweight window (1 - t^2)^3 on [-1, 1] applied in the frequency domain;
#: a second-order kernel with compact Fourier support.  Default.
TRIWEIGHT_KERNEL = KernelSpec(_triweight_fourier, label="triweight")

#: Flat-top window; an infinite-order kernel.
FLATTOP_KERNEL = KernelSpec(_flattop_fourier, label="flattop", breaks=(0.5,))

KERNELS = {"triweight": TRIWEIGHT_KERNEL, "flattop": FLATTOP_KERNEL}


def default_grid(a: float = -3.0, b: float = 3.0, points: int = 301) -> np.ndarray:
    return np.linspace(a, b, points)


def _check_grid(grid: np.ndarray) -> None:
    """A ConfigError unless grid is default_grid(a, b, points) with points >= 2
    and increasing nodes: equispaced, as the rearrangement and the link's
    cell lookup assume, and as to_dict writes it.  Nodes that rounding
    merged, or that lie a subnormal step apart, would break the lookup and
    the slopes, so the steps must be at least the smallest normal float."""
    ok = grid.ndim == 1 and len(grid) >= 2 and np.diff(grid).min() >= np.finfo(float).tiny
    if not (ok and np.array_equal(grid, default_grid(grid[0], grid[-1], len(grid)))):
        raise ConfigError("grid must be default_grid(a, b, points), a < b, points >= 2")


def _check_bandwidth(mode: str, h: Optional[float], c_h: Optional[float]) -> None:
    """A ConfigError unless the bandwidth rule is "fixed" with h > 0, or
    "theory", and c_h is positive or None (its default); all finite."""
    if mode not in ("fixed", "theory"):
        raise ConfigError("bandwidth mode must be 'fixed' or 'theory'")
    # Negated, so that nan fails them too.
    if mode == "fixed" and (h is None or not 0.0 < h < np.inf):
        raise ConfigError("fixed bandwidth mode needs a finite h > 0")
    if c_h is not None and not 0.0 < c_h < np.inf:
        raise ConfigError("bandwidth constant c_h must be positive and finite")


@dataclass(frozen=True)
class DeconvConfig:
    """Grid, kernel, bandwidth rule, and monotonization choices."""

    grid: np.ndarray = field(default_factory=default_grid)
    kernel: KernelSpec = TRIWEIGHT_KERNEL
    bandwidth_mode: str = "theory"  # "fixed" or "theory"
    h: Optional[float] = None
    c_h: Optional[float] = None
    monotonizer: str = "rearrange"
    deriv_floor: float = 1e-3

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        _check_grid(grid)
        if not 0.0 < self.deriv_floor < np.inf:
            raise ConfigError(f"derivative floor must be positive and finite: eps = {self.deriv_floor}")
        _check_bandwidth(self.bandwidth_mode, self.h, self.c_h)
        if self.monotonizer not in MONOTONIZERS:
            raise ConfigError(
                f"unknown monotonizer {self.monotonizer!r}; "
                f"choose from {sorted(MONOTONIZERS)}"
            )
        object.__setattr__(self, "grid", grid)

    @property
    def window(self) -> Tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


@dataclass(frozen=True)
class LinkEstimate:
    """Monotone gridded link estimate with a floored derivative."""

    grid: np.ndarray
    values: np.ndarray
    deriv: np.ndarray
    varsigma2: float
    h: float
    window: Tuple[float, float]
    deriv_floor: float

    def __post_init__(self):
        _check_grid(np.asarray(self.grid, dtype=float))

    @functools.cached_property
    def _pieces(self):
        """Per position pos = searchsorted(grid, x, "right"), 0 to m for m
        nodes: the left node of the cell (the end node beyond the grid), the
        value and the antiderivative there, and the slopes of
        `_floored_slopes`."""
        node = np.maximum(np.arange(len(self.grid) + 1) - 1, 0)
        gvals = build_antiderivative(self.grid, self.values)
        slopes, floored = _floored_slopes(self.grid, self.values, self.deriv_floor)
        return self.grid[node], self.values[node], gvals[node], slopes, floored

    @functools.cached_property
    def _lookup(self):
        """Scale and shift with x scale + shift = (x - a)(m - 1)/(b - a) + 1
        on the grid a = x_0 < ... < x_{m-1} = b, the last position m, and
        the nodes below and above each position: x_{pos-1} (-inf at 0) and
        x_pos (nan at m, which no point reaches or passes)."""
        grid = self.grid
        a, b, m = grid[0], grid[-1], len(grid)
        scale = (m - 1) / (b - a)
        below = np.concatenate(([-np.inf], grid))
        above = np.concatenate((grid, [np.nan]))
        return scale, 1.0 - a * scale, float(m), below, above

    def _positions(self, x: np.ndarray) -> np.ndarray:
        """np.searchsorted(grid, x, "right"), by arithmetic on the equispaced
        grid: (x - a)(m - 1)/(b - a) + 1, clamped to [0, m] (nan to m, where
        searchsorted sorts it), and truncated, is off by at most one
        position, which one node comparison on each side corrects."""
        scale, shift, last, below, above = self._lookup
        est = x * scale
        est += shift
        np.fmin(est, last, out=est)
        np.fmax(est, 0.0, out=est)
        pos = est.astype(np.intp)
        pos += x >= above[pos]
        pos -= x < below[pos]
        return pos

    def evaluate(self, x: np.ndarray):
        """(G, ghat, ghat') at the points of x, from one lookup of their
        cells on the grid.

        ghat is piecewise-linear inside the window and continues linearly
        beyond it with the floored end slope; G is its exact integral from
        the left grid edge; ghat' is the local slope, never below the floor.
        """
        left, values, gvals, slopes, floored = self._pieces
        pos = self._positions(x)
        dx = x - left[pos]
        base, slope = values[pos], slopes[pos]
        return (
            gvals[pos] + base * dx + 0.5 * slope * dx * dx,
            base + slope * dx,
            floored[pos],
        )


def _floored_slopes(grid: np.ndarray, values: np.ndarray, floor: float):
    """Slopes indexed by searchsorted(grid, x, "right"): the floored left end
    slope, the cell slopes, the floored right end slope; and the same slopes
    floored, which are the derivative everywhere (at a node, that of the cell
    to its right)."""
    slopes = np.diff(values) / np.diff(grid)
    slopes = np.concatenate(([max(slopes[0], floor)], slopes, [max(slopes[-1], floor)]))
    return slopes, np.maximum(slopes, floor)


def build_antiderivative(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Antiderivative values at the grid nodes, zero at the left edge.

    The cumulative trapezoid rule is the exact integral of the
    piecewise-linear interpolant of (xs, vs); the expression is scipy's
    `cumulative_trapezoid(vs, xs, initial=0.0)`, operation for operation.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    steps = np.diff(xs) * (vs[1:] + vs[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


@functools.lru_cache(maxsize=64)
def _gauss_legendre(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _panel_nodes(length: float, omega: float, c: float) -> int:
    """Gauss-Legendre node count for one panel, of the given length, of the
    kernel integral evaluated at phases |u| <= omega with exponent
    c = M0^2 varsigma^2 / (2 h^2).

    Smallest counts that put the sums within 1e-11 of int phi exp(c t^2)
    of a 2 x 1024-node panel reference, at 400 phases in [0, omega], with
    the same count in every panel:

                     triweight, 1 panel          flat-top, 2 panels
        omega \\ c    0    2   10   50  100      0    2   10   50  100
           0         4   10   17   33   45      4    9   13   24   32
          20        16   15   18   33   45     12   12   14   24   33
         100        42   42   40   40   48     26   26   26   28   36
         200        70   71   69   58   57     42   42   42   39   40
         500       152  152  151  130  106     84   84   84   78   70
        1000       283  283  282  254  203    151  152  152  143  129

    The phase alone needs about 0.28 omega L + 12 nodes on a panel of
    length L, the exponent alone about 4.4 sqrt(c); the rule takes the
    larger of the two with a margin and rounds up to a multiple of 8, so
    that few distinct rules exist, up to _MAX_PANEL_NODES.
    """
    n = max(0.3 * omega * length + 14.0, 4.4 * np.sqrt(c) + 6.0)
    return min(8 * int(np.ceil(n / 8.0)), _MAX_PANEL_NODES)


def _kernel_exponent(h: float, varsigma: float) -> float:
    """The kernel integrand's largest exponent c = M0^2 varsigma^2 / (2 h^2)."""
    r = M0 * varsigma / h
    return r * r / 2.0


def _kernel_panels(h: float, varsigma: float, spec: KernelSpec, omega: float):
    """Midpoint m, half length r and Gauss-Legendre rule (nodes x, weights)
    on [-1, 1] of each panel of [0, M0] between the kernel's breaks; the
    panel's nodes are m + r x.  The rules are symmetric: x = -x[::-1] and
    weights = weights[::-1], bit for bit, so each panel's nodes pair up as
    m -+ r x[len(x) // 2:]."""
    if not h > 0:  # negated, so that nan fails it too
        raise ConfigError("bandwidth must be positive")
    c = _kernel_exponent(h, varsigma)
    if not c <= _MAX_EXPONENT:
        raise KernelOverflowError(
            f"kernel integrand exp({c:.1f}) overflows; "
            "the noise scale is too large for this bandwidth"
        )
    edges = (0.0, *spec.breaks, M0)
    return [
        (0.5 * (a + b), 0.5 * (b - a), *_gauss_legendre(_panel_nodes(b - a, omega, c)))
        for a, b in zip(edges[:-1], edges[1:])
    ]


def _panel_coefficients(
    panels, h: float, varsigma: float, spec: KernelSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t_k and coefficients psi_k of the composite rule on panels."""
    t = np.concatenate([m + r * x for m, r, x, _ in panels])
    w = np.concatenate([r * wx for _, r, _, wx in panels])
    exponent = t * t * varsigma * varsigma / (2.0 * h * h)
    psi = w * spec.fourier(t) * np.exp(exponent) / np.pi
    return t, psi


def deconv_kernel_eval(
    u, h: float, varsigma: float, spec: KernelSpec = TRIWEIGHT_KERNEL
):
    """Evaluate the deconvolution kernel at u (scalar or array)."""
    u = np.asarray(u, dtype=float)
    panels = _kernel_panels(h, varsigma, spec, np.max(np.abs(u), initial=0.0))
    t, psi = _panel_coefficients(panels, h, varsigma, spec)
    out = np.cos(np.multiply.outer(u, t)) @ psi
    return float(out) if out.ndim == 0 else out


def select_bandwidth(
    n: int,
    varsigma: float,
    mode: str = "theory",
    h: Optional[float] = None,
    c_h: Optional[float] = None,
) -> float:
    """Bandwidth for n observations at noise scale varsigma.

    "theory" returns (c_h log n)^{-1/2} after checking the stability
    constraint 2 M0^2 varsigma^2 c_h < 1; when c_h is not supplied it
    defaults to 0.45 / (M0 varsigma)^2, which meets the constraint with
    margin 0.9 (and to 1.0 in the noiseless case).  "fixed" returns h while
    its kernel exponent is at most _MAX_EXPONENT, and the theory bandwidth,
    whose exponent stays below log(n) / 4, otherwise.
    """
    _check_bandwidth(mode, h, c_h)
    if not np.isfinite(varsigma):
        raise KernelOverflowError(f"index noise scale varsigma = {varsigma} is not finite")
    if mode == "fixed" and _kernel_exponent(h, varsigma) <= _MAX_EXPONENT:
        return float(h)
    if n < 2:
        raise ConfigError("theory bandwidth needs n >= 2")
    if c_h is None:
        c_h = 0.45 / (M0 * varsigma) ** 2 if varsigma > 0 else 1.0
    if 2.0 * M0 ** 2 * varsigma ** 2 * c_h >= 1.0:
        raise BandwidthConstraintError(
            f"2 M0^2 varsigma^2 c_h = "
            f"{2.0 * M0 ** 2 * varsigma ** 2 * c_h:.4f} >= 1"
        )
    return float(1.0 / np.sqrt(c_h * np.log(n)))


def nw_deconv_grid(
    index: IndexEstimate,
    y: np.ndarray,
    h: float,
    config: DeconvConfig,
) -> np.ndarray:
    """Raw deconvolution regression values on the grid.

    Each grid point x carries the ratio
        sum_i y_i K((x - W_i)/h) / sum_i K((x - W_i)/h);
    points whose denominator is below _DENOM_TOL * n in absolute value are
    masked: their value is NaN.

    The kernel is the quadrature sum of `_panel_coefficients`, so both
    sums are sum_k psi_k Re(exp(-i t_k x / h) Z(t_k)) with the data sums
    Z(t) = sum_i (y_i, 1) exp(i t W_i / h): inner products of the grid
    waves cos(t_k x / h) and sin(t_k x / h) with Re Z and Im Z.  Each
    panel's symmetric nodes pair up as t = m -+ d, and Z(m -+ d) = C -+ iS
    with C and S the sums of the midpoint waves exp(i m W_i / h) weighted
    by cos(d W_i / h) and sin(d W_i / h).
    """
    w = np.asarray(index.w, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.shape != y.shape:
        raise ConfigError("index and response lengths differ")
    grid = config.grid
    omega = max(grid[-1] - w.min(), w.max() - grid[0]) / h  # max |x - W| / h
    varsigma = float(np.sqrt(index.varsigma2))
    panels = _kernel_panels(h, varsigma, config.kernel, omega)
    t, psi = _panel_coefficients(panels, h, varsigma, config.kernel)
    # Data side: Z(m -+ d) = C -+ iS.  The midpoint waves go to BLAS as
    # real rows (re, im), each product is read back as complex, and the
    # offsets of all distinct rules share one product: BLAS rounds by the
    # operands' shape and layout, which fix the bytes.
    arg = np.multiply.outer([[m / h] for m, *_ in panels], w)
    wave = np.concatenate((np.cos(arg), np.sin(arg)), axis=1)
    rows = np.concatenate((wave * y, wave)).reshape(-1, len(w))
    rules = {(r, len(x)): r * x[len(x) // 2:] for _, r, x, _ in panels}
    arg = np.multiply.outer(np.concatenate(list(rules.values())) / h, w)
    c = (np.cos(arg) @ rows.T).view(complex)
    i_s = 1j * (np.sin(arg) @ rows.T).view(complex)
    lower, upper = c - i_s, c + i_s  # Z at m - d and m + d
    ends = [0, *itertools.accumulate(len(d) for d in rules.values())]
    block = dict(zip(rules, map(slice, ends, ends[1:])))  # each rule's rows
    sums = []  # Z(t) of y and of 1, in the order of t
    for p, (_, r, x, _) in enumerate(panels):
        b, cols = block[r, len(x)], slice(p, None, len(panels))
        sums += [lower[b][::-1, cols], upper[b][:, cols]]
    sums = np.concatenate(sums)
    sums = psi[:, None] * np.concatenate((sums.real, sums.imag), axis=1)  # Re Z, Im Z
    # Grid side: Re(exp(-itx/h) Z(t)) = cos(tx/h) Re Z + sin(tx/h) Im Z.
    arg_x = np.multiply.outer(grid, t / h)
    num, den = (np.cos(arg_x) @ sums[:, :2] + np.sin(arg_x) @ sums[:, 2:]).T
    valid = np.abs(den) >= _DENOM_TOL * len(w)
    if not valid.any():
        raise EmptyEstimateError("every grid point has negligible kernel mass")
    raw = np.full(len(grid), np.nan)
    raw[valid] = num[valid] / den[valid]
    return raw


def _fill_nearest(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Replace invalid entries by the nearest valid entry (ties go left)."""
    idx = np.arange(len(values))
    valid_idx = idx[valid]
    pos = np.searchsorted(valid_idx, idx)
    left = valid_idx[np.clip(pos - 1, 0, len(valid_idx) - 1)]
    right = valid_idx[np.clip(pos, 0, len(valid_idx) - 1)]
    nearest = np.where(idx - left <= right - idx, left, right)
    return values[nearest]


def estimate_link(
    index: IndexEstimate, y: np.ndarray, config: DeconvConfig
) -> LinkEstimate:
    """Full link estimate: bandwidth, deconvolution grid, fill, monotonize,
    and the floored cell-slope derivative that LinkEstimate.evaluate
    reports at the grid nodes."""
    h = select_bandwidth(
        len(index.w),
        float(np.sqrt(index.varsigma2)),
        config.bandwidth_mode,
        config.h,
        config.c_h,
    )
    raw = nw_deconv_grid(index, y, h, config)
    # The deconvolution kernel takes negative values, so a near-cancelling
    # denominator can pass the mass check yet yield a conditional-mean value
    # far outside any plausible response hull; such points are as invalid as
    # masked ones (NaN fails both comparisons).  The wide margin leaves edge
    # fluctuation alone and only rejects outliers that would wreck the grid
    # function.  A constant response has no spread, and its own scale sets
    # the margin: its estimate is that constant up to rounding.
    spread = float(np.max(y) - np.min(y)) or float(np.max(np.abs(y)))
    lo = float(np.min(y)) - 5.0 * spread
    hi = float(np.max(y)) + 5.0 * spread
    in_range = (raw >= lo) & (raw <= hi)
    if not np.any(in_range):
        raise EmptyEstimateError("no grid point carries a usable estimate")
    values = MONOTONIZERS[config.monotonizer](_fill_nearest(raw, in_range))
    _, floored = _floored_slopes(config.grid, values, config.deriv_floor)
    return LinkEstimate(
        grid=config.grid,
        values=values,
        deriv=floored[1:],
        varsigma2=index.varsigma2,
        h=h,
        window=config.window,
        deriv_floor=config.deriv_floor,
    )


def eval_link(est: LinkEstimate, x):
    """Evaluate (ghat, ghat') at x (scalar or array): LinkEstimate.evaluate
    without the antiderivative."""
    x_arr = np.asarray(x, dtype=float)
    _, g, gp = est.evaluate(np.atleast_1d(x_arr))
    if x_arr.ndim == 0:
        return float(g[0]), float(gp[0])
    return g, gp
