"""Property tests over the core invariants, driven by hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from synthloc.embed import (
    EmbeddingModel,
    TrainingTuple,
    ViewResolver,
    aggregate,
    aggregated_value_and_grad,
    multi_value_and_grad,
)
from synthloc.geometry import MatchParams
from synthloc.index import AsmkSignature, asmk_score
from synthloc.localize import AccuracyThresholds, PoseError, localization_rate

from conftest import make_view, match_pairs


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
    res = ViewResolver(views)
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
        cells = {
            int(c): rng.choice([-1, 1], size=6).astype(np.int8)
            for c in rng.choice(10, size=int(rng.integers(1, 6)), replace=False)
        }
        return AsmkSignature(cells=cells, dim=6)

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
    rates = localization_rate(errs, AccuracyThresholds())
    assert rates["high"] <= rates["mid"] <= rates["low"]
