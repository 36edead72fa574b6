"""Monotonization operators on gridded values."""

import numpy as np
import pytest

from sindex.deconv import MONOTONIZERS, DeconvConfig
from sindex.errors import ConfigError

naive, rearrange = MONOTONIZERS["naive"], MONOTONIZERS["rearrange"]


def vals(vs):
    return np.asarray(vs, dtype=float)


def test_naive_running_max():
    assert np.allclose(naive(vals([1, 3, 2])), [1, 3, 3])


def test_naive_keeps_sorted_input():
    f = vals([1, 2, 2, 5])
    assert np.allclose(naive(f), f)
    assert np.allclose(rearrange(f), f)


def test_constant_unchanged():
    f = vals([2, 2, 2])
    assert np.allclose(naive(f), 2)
    assert np.allclose(rearrange(f), 2)


def test_rearrange_sorts():
    assert np.allclose(rearrange(vals([3, 1, 2])), [1, 2, 3])


def test_validation():
    # The grid the operators act on is DeconvConfig's: equispaced, >= 2 points.
    with pytest.raises(ConfigError):
        DeconvConfig(grid=np.array([0.0, 0.0]))
    with pytest.raises(ConfigError):
        DeconvConfig(grid=np.array([0.0]))
    with pytest.raises(ConfigError, match="unknown monotonizer 'pool-adjacent'"):
        DeconvConfig(monotonizer="pool-adjacent")


def test_idempotence_and_monotone_output():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f = rng.standard_normal(rng.integers(2, 40))
        for op in MONOTONIZERS.values():
            once = op(f)
            assert np.all(np.diff(once) >= 0)
            assert np.array_equal(op(once), once)


def test_rearrange_preserves_multiset_naive_preserves_max():
    rng = np.random.default_rng(8)
    for _ in range(200):
        f = rng.standard_normal(17)
        assert np.allclose(np.sort(rearrange(f)), np.sort(f))
        once = naive(f)
        assert once.max() == f.max()
        assert np.all(once >= f)


def test_sup_error_non_expansion_against_monotone_reference():
    # 1000 random grids: monotonizing never increases the sup-distance to a
    # nondecreasing reference (brute-force sorting oracle).
    rng = np.random.default_rng(9)
    for _ in range(1000):
        m = int(rng.integers(2, 30))
        ref = np.sort(rng.standard_normal(m))
        noisy = ref + rng.normal(scale=rng.uniform(0.01, 2.0), size=m)
        base = np.max(np.abs(noisy - ref))
        sorted_err = np.max(np.abs(np.sort(noisy) - ref))
        assert np.max(np.abs(rearrange(noisy) - ref)) == pytest.approx(sorted_err)
        assert sorted_err <= base + 1e-12
        assert np.max(np.abs(naive(noisy) - ref)) <= base + 1e-12
