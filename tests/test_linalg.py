"""Weighted Gram helpers, the adjustment trace and the Newton direction
against dense references."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import cho_factor

from sindex._linalg import adjustment_trace, cho_inverse, weighted_gram
from sindex.errors import RankError
from sindex.surrogate import _newton_direction


@st.composite
def problems(draw):
    """(x, weights, ridge) with p in {n - 1, n, n + 1}; weights may be 0."""
    n = draw(st.integers(2, 12))
    p = n + draw(st.sampled_from((-1, 0, 1)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    weights = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.1, 3.0)), min_size=n, max_size=n
            )
        )
    )
    ridge = draw(st.one_of(st.just(0.0), st.floats(0.05, 5.0)))
    x = np.random.default_rng(seed).standard_normal((n, p))
    return x, weights, ridge


def dense_hessian(x, weights, ridge):
    return x.T @ np.diag(weights) @ x + ridge * np.eye(x.shape[1])


def well_posed(x, weights, ridge):
    # At ridge 0 the primal solve needs X'DX invertible, and a 1e-10
    # comparison needs it well conditioned.
    return ridge > 0.0 or np.linalg.cond(dense_hessian(x, weights, 0.0)) < 1e4


@settings(max_examples=200, deadline=None)
@given(problems())
def test_adjustment_trace_matches_dense_inverse(problem):
    x, weights, ridge = problem
    assume(well_posed(x, weights, ridge))
    d = np.diag(weights)
    reference = np.trace(
        d - d @ x @ np.linalg.inv(dense_hessian(x, weights, ridge)) @ x.T @ d
    )
    # The trace lies in [0, sum(w)]; at ridge 0 with p >= n it is 0 up to
    # rounding, so the tolerance is relative to that scale as well.
    tol = 1e-10 * max(abs(reference), float(np.sum(weights)))
    assert abs(adjustment_trace(x, weights, ridge) - reference) <= tol


def test_adjustment_trace_singular_raises():
    x = np.random.default_rng(0).standard_normal((6, 4))
    with pytest.raises(RankError):
        adjustment_trace(x, np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), 0.0)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_newton_direction_solves_hessian_system(problem):
    x, weights, ridge = problem
    assume(well_posed(x, weights, ridge))
    grad = np.random.default_rng(x.shape[0]).standard_normal(x.shape[1])
    hess = dense_hessian(x, weights, ridge)
    d = _newton_direction(x, weights, ridge, grad)
    scale = np.linalg.norm(hess, 2) * np.linalg.norm(d) + np.linalg.norm(grad)
    assert np.linalg.norm(hess @ d + grad) <= 1e-10 * scale


@pytest.mark.parametrize("dual", [False, True])
def test_weighted_gram_and_cho_inverse(dual):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 5))
    w = rng.uniform(0.5, 2.0, 7)
    gram = weighted_gram(x, w, 0.3, dual)
    s = np.diag(np.sqrt(w)) @ x
    reference = s @ s.T if dual else x.T @ np.diag(w) @ x
    reference += 0.3 * np.eye(len(reference))
    assert np.allclose(gram, reference, rtol=1e-13, atol=0.0)
    inv = cho_inverse(cho_factor(gram, overwrite_a=True))
    assert np.allclose(np.triu(inv), np.triu(np.linalg.inv(reference)), rtol=1e-12)
