"""Weighted Gram helpers, the shared Gram, the adjustment trace and the
Newton direction against dense references."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import LinAlgError

from sindex import _linalg
from sindex._linalg import Gram, adjustment_trace, tri_inverse, weighted_gram
from sindex.deconv import KERNELS, DeconvConfig
from sindex.errors import RankError, SolverError
from sindex.experiments import _simulate
from sindex.inference import adjust_inferential
from sindex.models import Dataset
from sindex.pilot import PILOT_KINDS, fit_pilot, glm_mle_fit
from sindex.pipeline import PipelineConfig, SplitConfig, run_pipeline
from sindex.surrogate import _newton_direction, fit_coefficients


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


@st.composite
def tall_problems(draw):
    """(x, weights, ridge) with n > p and p on both sides of the triangular
    inverse's recursion base of 64 rows, so that the trace's p x p L^{-1}
    is built by dtrtri alone or by the recursion."""
    p = draw(st.sampled_from((63, 64, 65, 128, 129)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = p + draw(st.integers(1, 40))
    ridge = draw(st.sampled_from((0.0, 0.5)))
    return rng.standard_normal((n, p)), rng.uniform(0.1, 2.0, n), ridge


def dense_hessian(x, weights, ridge):
    return x.T @ np.diag(weights) @ x + ridge * np.eye(x.shape[1])


def well_posed(x, weights, ridge):
    # At ridge 0 the primal solve needs X'DX invertible, and a 1e-10
    # comparison needs it well conditioned.
    return ridge > 0.0 or np.linalg.cond(dense_hessian(x, weights, 0.0)) < 1e4


def used_gram(x, weights, ridge):
    """A Gram of x that already served other weights at ridge 0 (the p x p
    path) and at this ridge (the n x n path when ridge > 0 and p > n), the
    last ones off in every third row, so that the next call updates."""
    gram = Gram(x)
    others = weights.copy()
    others[::3] = 1.0 + weights[::3]
    for served in (0.0, ridge):
        gram.weighted(np.full(len(weights), 0.5), served)
        gram.weighted(others, served)
    return gram


@settings(max_examples=200, deadline=None)
@given(st.one_of(problems(), tall_problems()))
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
    gram = used_gram(x, weights, ridge)
    assert abs(adjustment_trace(x, weights, ridge, gram) - reference) <= tol


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
    for gram in (Gram(x), used_gram(x, weights, ridge)):
        d = _newton_direction(x, weights, ridge, grad, gram)
        scale = np.linalg.norm(hess, 2) * np.linalg.norm(d) + np.linalg.norm(grad)
        assert np.linalg.norm(hess @ d + grad) <= 1e-10 * scale


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.sampled_from([None, 1, 3]), st.integers(0, 2 ** 32 - 1))
def test_cho_factor_and_solve_match_scipy_bit_for_bit(p, columns, seed):
    # The lean entry calls the LAPACK routines that scipy's wrappers call,
    # on the same operands, with one finiteness check instead of theirs.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((p + 3, p))
    matrix = weighted_gram(x, rng.uniform(0.1, 2.0, p + 3), 0.01)
    rhs = rng.standard_normal(p if columns is None else (p, columns))
    reference = scipy.linalg.cho_factor(matrix.copy(order="F"), lower=True)
    factor = _linalg.cho_factor(matrix)
    assert np.shares_memory(factor[0], matrix) and factor[1] is reference[1] is True
    assert np.array_equal(_bits(np.tril(factor[0])), _bits(np.tril(reference[0])))
    assert not np.triu(factor[0], 1).any()  # the upper triangle is zeroed
    solution = _linalg.cho_solve(factor, rhs)
    assert solution.shape == rhs.shape
    assert np.array_equal(_bits(solution), _bits(scipy.linalg.cho_solve(reference, rhs)))
    for bad in (np.nan, np.inf, -np.inf):
        broken = weighted_gram(x, None, 0.01)
        broken[p // 2, 0] = bad
        with pytest.raises(SolverError):
            _linalg.cho_factor(broken)
        spoiled = rhs.copy()
        spoiled.flat[-1] = bad
        with pytest.raises(SolverError):
            _linalg.cho_solve(factor, spoiled)
    with pytest.raises(LinAlgError):
        _linalg.cho_factor(-weighted_gram(x, None, 0.01))


@pytest.mark.parametrize("dual", [False, True])
def test_weighted_gram_and_tri_inverse(dual):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 5))
    w = rng.uniform(0.5, 2.0, 7)
    gram = weighted_gram(x, w, 0.3, dual)
    s = np.diag(np.sqrt(w)) @ x
    reference = s @ s.T if dual else x.T @ np.diag(w) @ x
    reference += 0.3 * np.eye(len(reference))
    assert np.allclose(gram, reference, rtol=1e-13, atol=0.0)
    inv = tri_inverse(_linalg.cho_factor(gram)[0])
    assert not np.triu(inv, 1).any()
    assert np.allclose(inv.T @ inv, np.linalg.inv(reference), rtol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(1, 300), st.sampled_from((63, 64, 65, 127, 128, 129, 257))),
    st.sampled_from(("factor", "primal", "dual")),
    st.integers(0, 2 ** 32 - 1),
)
def test_cho_inverse_diag_matches_the_dense_inverse(n, source, seed):
    # The recursion halves a triangle until dtrtri takes it, so sizes on
    # both sides of the base and odd halves must all give diag(A^{-1}).
    # Designs twice as long as wide keep A well conditioned, so that the
    # dense reference itself holds 1e-12.
    rng = np.random.default_rng(seed)
    if source == "factor":
        x = rng.standard_normal((2 * n, n))
        matrix = weighted_gram(x, rng.uniform(0.1, 2.0, 2 * n), 0.01)
        reference = np.diag(np.linalg.inv(matrix))
        diag = _linalg.cho_inverse_diag(_linalg.cho_factor(matrix))
    else:  # the factors the traces take over, p x p and n x n
        x = rng.standard_normal((n, 2 * n) if source == "dual" else (2 * n, n))
        weights = rng.uniform(0.1, 2.0, len(x))
        gram = Gram(x)
        assert gram.dual(0.3) == (source == "dual")
        reference = np.diag(np.linalg.inv(weighted_gram(x, weights, 0.3, gram.dual(0.3))))
        diag = _linalg.cho_inverse_diag(gram.take_factor(weights, 0.3))
    assert np.max(np.abs(diag - reference) / reference) <= 1e-12


@st.composite
def weight_sequences(draw):
    """(x, ridge, weight vectors): each vector changes a few rows, most
    rows, sets rows to zero, makes every weight equal, or repeats.  With
    p > n, ridge 0.7 takes the n x n path and ridge 0 the p x p one."""
    n = draw(st.integers(2, 16))
    p = draw(st.integers(1, 16))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal((n, p))
    value = st.floats(0.1, 3.0)
    weights = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    sequence = []
    for step in draw(
        st.lists(st.sampled_from(("few", "most", "zero", "constant", "same")), max_size=8)
    ):
        weights = weights.copy()
        if step == "constant":
            weights[:] = draw(value)
        elif step != "same":
            count = {"few": (0, n // 2), "most": (n // 2 + 1, n), "zero": (1, n)}[step]
            rows = draw(st.permutations(range(n)))[: draw(st.integers(*count))]
            for row in rows:
                weights[row] = 0.0 if step == "zero" else draw(value)
        sequence.append(weights)
    return x, draw(st.sampled_from((0.0, 0.7))), sequence


@settings(max_examples=200, deadline=None)
@given(weight_sequences())
def test_gram_follows_a_sequence_of_weights(case):
    x, ridge, sequence = case
    n, p = x.shape
    dual = ridge > 0.0 and p > n
    gram = Gram(x)
    assert gram.dual(ridge) == dual
    for weights in [None] + sequence:
        got = gram.weighted(weights, ridge)
        reference = weighted_gram(x, weights, ridge, dual)
        assert got.shape == ((n, n) if dual else (p, p))
        assert got.flags.f_contiguous
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
        got[...] = np.nan  # the caller may factor the matrix in place


@pytest.mark.parametrize("fallen", [0.0, 1e-9])
def test_gram_rebuilds_when_most_weight_falls(fallen):
    # An update's rounding scales with the X'DX it started from, so once the
    # weight falls to (nearly) zero a row or two at a time, it must rebuild.
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal((4, 2))
        gram = Gram(x)
        weights = np.ones(4)
        gram.weighted(weights)
        for rows in ([0], [1], [2, 3]):
            weights[rows] = fallen
            got = gram.weighted(weights)
        reference = weighted_gram(x, weights)
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("n, p", [(80, 160), (300, 20)])
def test_no_split_refit_on_the_pilots_gram_equals_a_fresh_fit(n, p):
    # run_pipeline shares one Gram among the ridge pilot, the Newton steps
    # and the trace; the dual shape shares XX', the primal one updates X'DX.
    x, y, _, _ = _simulate("cloglog", n, p, "uniform-sphere", np.random.SeedSequence(5))
    config = PipelineConfig(
        deconv=DeconvConfig(bandwidth_mode="fixed", h=2.5),
        split=SplitConfig(no_split=True),
    )
    report = run_pipeline(Dataset(x, y), config)
    fresh = fit_coefficients(x, y, report.link, 0.1)
    assert report.coef.iterations == fresh.iterations
    gap = np.max(np.abs(report.coef.beta - fresh.beta)) / np.max(np.abs(fresh.beta))
    assert gap <= 1e-10
    mu, sigma2 = adjust_inferential(x, y, fresh.beta, report.link, 0.1)
    assert report.inference.mu_hat == pytest.approx(mu, rel=1e-10)
    assert report.inference.sigma2_hat == pytest.approx(sigma2, rel=1e-10)


@pytest.fixture
def cho_calls(monkeypatch):
    """The calls of sindex._linalg.cho_factor, the one every Gram makes."""
    calls, factor = [], _linalg.cho_factor

    def counted(a):
        calls.append(a.shape)
        return factor(a)

    monkeypatch.setattr(_linalg, "cho_factor", counted)
    return calls


def test_gram_keeps_one_factor_for_exactly_equal_weights(cho_calls):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 6))
    weights = rng.uniform(0.5, 2.0, 30)
    gram = Gram(x)
    fac = gram.factor(weights, 0.3)
    assert gram.factor(weights.copy(), 0.3) is fac and len(cho_calls) == 1
    nudged = weights.copy()
    nudged[7] = np.nextafter(nudged[7], 3.0)
    for args in ((nudged, 0.3), (weights, 0.0), (weights, 0.4), (weights, 0.3)):
        gram.factor(*args)  # no tolerance: each differs from the one before
    assert len(cho_calls) == 5
    gram.weighted(weights, 0.3)  # a matrix handed out drops the kept factor
    gram.factor(weights, 0.3)
    assert len(cho_calls) == 6
    taken = gram.take_factor(weights, 0.3)
    assert len(cho_calls) == 6
    reference = weighted_gram(x, weights, 0.3)
    assert np.allclose(np.tril(taken[0]) @ np.tril(taken[0]).T, reference, rtol=1e-12)
    gram.factor(weights, 0.3)  # the taken factor is not handed out again
    assert len(cho_calls) == 7
    wide = Gram(rng.standard_normal((6, 30)))  # p > n at a ridge: n x n
    assert wide.factor(weights[:6], 0.3)[0].shape == (6, 6) and len(cho_calls) == 8


@pytest.mark.parametrize("n, p", [(80, 160), (300, 20)])
def test_trace_after_the_refit_factors_nothing(cho_calls, n, p):
    # The refit's last Newton step factors X'DX + n lam I (SS' + n lam I on
    # the dual path) at the weights where it converges, as the link's
    # derivative is piecewise constant; the trace takes that factor over.
    x, y, _, _ = _simulate("cloglog", n, p, "uniform-sphere", np.random.SeedSequence(5))
    config = PipelineConfig(
        deconv=DeconvConfig(bandwidth_mode="fixed", h=2.5),
        split=SplitConfig(no_split=True),
    )
    link = run_pipeline(Dataset(x, y), config).link
    cho_calls.clear()
    gram = Gram(x)
    fit = fit_coefficients(x, y, link, 0.1, gram=gram)
    factored = len(cho_calls)
    assert 1 <= factored <= fit.iterations
    mu, sigma2 = adjust_inferential(x, y, fit.beta, link, 0.1, None, gram)
    assert len(cho_calls) == factored
    fresh = adjust_inferential(x, y, fit.beta, link, 0.1)
    assert len(cho_calls) == factored + 1
    assert (mu, sigma2) == pytest.approx(fresh, rel=1e-12)


def test_mle_pilot_trace_factors_once(cho_calls):
    # The MLE pilot's weights at its fit never equal its last Newton
    # weights, so its trace, on the Gram that served the Newton loop,
    # factors anew: the pilot factors once more than its Newton loop does.
    x, y, _, _ = _simulate("logit", 400, 20, "uniform-sphere", np.random.SeedSequence(3))
    glm_mle_fit(x, y, "logistic")
    newton = list(cho_calls)
    cho_calls.clear()
    fit_pilot(x, y, "logit-mle")
    assert cho_calls == newton + [(20, 20)]


@pytest.fixture
def grams(monkeypatch):
    """The shapes of the designs that Grams are built on, in order."""
    built = []
    init = Gram.__init__

    def counted(self, x):
        built.append(x.shape)
        init(self, x)

    monkeypatch.setattr(Gram, "__init__", counted)
    return built


@pytest.mark.parametrize("kind", PILOT_KINDS)
def test_one_gram_per_design_matrix(grams, kind):
    # Every solve on one design matrix shares its one Gram: the ridge solve,
    # or the MLE's Newton steps and its trace, then the refit's Newton steps
    # and the inference trace.  run_pipeline builds one for each half of a
    # split, and one for data itself under no_split.
    x, y, _, _ = _simulate("logit", 400, 10, "uniform-sphere", np.random.SeedSequence(4))
    fit_pilot(x, y, kind)
    assert len(grams) <= 1
    for no_split in (True, False):
        grams.clear()
        config = PipelineConfig(
            pilot_kind=kind,
            deconv=DeconvConfig(kernel=KERNELS["flattop"]),
            split=SplitConfig(no_split=no_split),
        )
        report = run_pipeline(Dataset(x, y), config)
        halves = [(400, 10)] if no_split else [(report.n1, 10), (report.n2, 10)]
        assert grams == halves
