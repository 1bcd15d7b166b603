"""Property tests over the core invariants, driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthloc.embed import (
    EmbeddingModel,
    TrainingTuple,
    aggregate,
    aggregated_value_and_grad,
    multi_value_and_grad,
)
from synthloc.geometry import MatchParams
from synthloc.index import asmk_score
from synthloc.errors import NoConsensusError
from synthloc.localize import PoseError, RansacParams, localization_rate, pnp_ransac

from conftest import count_hypotheses, make_view, match_pairs, outcome, pnp_oracle


def _views(seed, n_views=5, n_feats=4, d=6):
    rng = np.random.default_rng(seed)
    return {
        i: make_view(np.random.default_rng(int(rng.integers(1 << 30))), n_feats, d, view_id=i)
        for i in range(n_views)
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 20))
def test_losses_nonnegative(seed):
    views = _views(seed)
    res = {(i, None): v for i, v in views.items()}
    t = TrainingTuple(0, 1, [2, 3])
    model = EmbeddingModel(np.random.default_rng(seed).standard_normal((3, 6)))
    assert multi_value_and_grad([t], res, model, 0.7)[0] >= 0.0
    assert aggregated_value_and_grad([t], res, model, 0.7)[0] >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 20))
def test_aggregate_unit_norm(seed):
    views = _views(seed, n_views=1)
    model = EmbeddingModel(np.random.default_rng(seed + 1).standard_normal((3, 6)))
    f = aggregate(views[0], model)
    assert abs(np.linalg.norm(f) - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 20))
def test_match_transpose_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = make_view(np.random.default_rng(int(rng.integers(1 << 30))), 8, 6)
    b = make_view(np.random.default_rng(int(rng.integers(1 << 30))), 9, 6)
    ab = match_pairs(a, b, MatchParams())
    ba = match_pairs(b, a, MatchParams())
    assert sorted((j, i) for (i, j) in ab) == sorted(ba)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 20))
def test_asmk_symmetry_random_signatures(seed):
    rng = np.random.default_rng(seed)

    def sig():
        signs = np.zeros((10, 6), dtype=np.int8)
        for c in rng.choice(10, size=int(rng.integers(1, 6)), replace=False):
            signs[c] = rng.choice([-1, 1], size=6)
        return signs

    a, b = sig(), sig()
    assert asmk_score(a, b) == asmk_score(b, a)
    assert asmk_score(a, a) >= asmk_score(a, b) - 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 15.0)),
        min_size=1,
        max_size=30,
    )
)
def test_localization_rate_monotone_over_levels(pairs):
    errs = [PoseError(t, r) for t, r in pairs]
    rates = localization_rate(errs)
    assert rates["high"] <= rates["mid"] <= rates["low"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1 << 20),
    st.integers(7, 20),
    st.integers(0, 30),
    st.integers(1, 300),
    st.floats(1e-20, 0.999),
)
def test_pnp_without_consensus_solves_the_consensus_bound(seed, min_inliers, extra, iterations, confidence):
    """Random pixels under a 1e-3 px inlier threshold leave every hypothesis
    far below least = min_inliers inliers. The solve then ends after the
    draws that take, with probability confidence, a sample of three distinct
    points inside a given least of the n (probability p), never fewer than
    one: min(iterations, max(1, ceil(log(1 - confidence) / log(1 - p)))),
    without consensus and as the oracle does."""
    n = min_inliers + extra
    rng = np.random.default_rng(seed)
    points = rng.uniform([-5, -5, 5], [5, 5, 15], (n, 3))
    pixels = rng.uniform([0, 0], [640, 480], (n, 2))
    params = RansacParams(
        iterations=iterations, inlier_px=1e-3, min_inliers=min_inliers, seed=seed, confidence=confidence
    )
    with pytest.MonkeyPatch.context() as mp:
        solved = count_hypotheses(mp)
        assert outcome(pnp_ransac, pixels, points, params) == NoConsensusError
    p = np.prod([(min_inliers - i) / (n - i) for i in range(3)])
    draws = 1 if p == 1.0 else max(1, int(np.ceil(np.log1p(-confidence) / np.log1p(-p))))
    assert sum(solved) == min(iterations, draws)
    assert outcome(pnp_oracle, pixels, points, params) == NoConsensusError
