import dataclasses

import numpy as np
import pytest

from synthloc.geometry import (
    ConsistencyScore,
    MatchParams,
    consistency_score,
    validate_pair,
)
from synthloc.variants import apply_variant, default_prompt_set, identity_shift

from conftest import make_view, match_pairs, perturbed


def brute_force_mutual_nn(a, b, ratio):
    """O(n^2) oracle for mutual-NN matching with the two-sided ratio test."""
    da, db = a.descriptors(), b.descriptors()
    dist = np.linalg.norm(da[:, None, :] - db[None, :, :], axis=2)
    pairs = []
    for i in range(da.shape[0]):
        j = int(np.argmin(dist[i]))
        if int(np.argmin(dist[:, j])) != i:
            continue

        def ok(row):
            if row.size < 2:
                return True
            two = np.sort(row)[:2]
            return two[0] <= ratio * two[1]

        if ok(dist[i, :]) and ok(dist[:, j]):
            pairs.append((i, j))
    return pairs


def test_self_match_identity():
    rng = np.random.default_rng(0)
    view = make_view(rng, 30, 16)
    assert match_pairs(view, view, MatchParams()) == [(i, i) for i in range(30)]


def test_disjoint_random_descriptors_near_empty():
    rng = np.random.default_rng(1)
    a = make_view(rng, 100, 32)
    b = make_view(rng, 100, 32)
    assert len(match_pairs(a, b, MatchParams(ratio=0.8))) <= 5


def test_matches_equal_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(20):
        a = make_view(np.random.default_rng(100 + trial), 10, 8)
        b = make_view(np.random.default_rng(200 + trial), 12, 8)
        got = match_pairs(a, b, MatchParams(ratio=0.9))
        assert got == brute_force_mutual_nn(a, b, 0.9)


def test_match_symmetry():
    rng = np.random.default_rng(3)
    for trial in range(10):
        a = make_view(np.random.default_rng(300 + trial), 15, 8)
        b = make_view(np.random.default_rng(400 + trial), 18, 8)
        ab = match_pairs(a, b, MatchParams())
        ba = match_pairs(b, a, MatchParams())
        assert sorted((j, i) for (i, j) in ab) == sorted(ba)


def _paired_views(rng, n, d, desc_noise=0.01):
    """A (q, p) pair observing the same landmarks with noisy descriptors."""
    q = make_view(rng, n, d, view_id=0)
    p = make_view(rng, n, d, view_id=1)
    return q, dataclasses.replace(p, desc=perturbed(rng, q.desc, desc_noise))


def test_consistency_identity_exact_one():
    rng = np.random.default_rng(6)
    q, p = _paired_views(rng, 40, 16)
    variant = apply_variant(q, identity_shift("same", 16), seed=1)
    s = consistency_score(q, p, variant, MatchParams())
    assert s.value == 1.0
    assert s.kept == s.original > 0


def test_consistency_full_dropout_exact_zero():
    rng = np.random.default_rng(7)
    q, p = _paired_views(rng, 40, 16)
    dead = identity_shift("dead", 16)
    dead.dropout_rate = 1.0
    dead.clutter_rate = 0.25
    variant = apply_variant(q, dead, seed=2)
    s = consistency_score(q, p, variant, MatchParams())
    assert s.value == 0.0
    assert s.kept == 0
    assert s.original > 0


def brute_force_score(q, p, variant, params):
    """Independent enumeration of both correspondence sets, restricted to
    landmark-bearing endpoints, and their p-keypoint-keyed intersection."""

    def aoi(pairs, a, b):
        la, lb = a.landmark_ids(), b.landmark_ids()
        return [(i, j) for (i, j) in pairs if la[i] >= 0 and lb[j] >= 0]

    c_qp = aoi(brute_force_mutual_nn(q, p, params.ratio), q, p)
    c_vp = aoi(brute_force_mutual_nn(variant, p, params.ratio), variant, p)
    if not c_qp:
        return ConsistencyScore(0.0, 0, 0)
    kp = p.keypoints()
    kept = 0
    for (_, j) in c_qp:
        for (_, j2) in c_vp:
            if np.linalg.norm(kp[j] - kp[j2]) <= params.pixel_tol:
                kept += 1
                break
    return ConsistencyScore(kept / len(c_qp), kept, len(c_qp))


def test_consistency_equals_brute_force_oracle():
    """20 seeded 50-feature pairs against the intersection oracle, exactly."""
    ps = default_prompt_set(16, seed=0)
    shift = ps.by_name("in winter")
    params = MatchParams()
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        q, p = _paired_views(rng, 50, 16)
        variant = apply_variant(q, shift, seed=trial)
        got = consistency_score(q, p, variant, params)
        want = brute_force_score(q, p, variant, params)
        assert got.kept == want.kept
        assert got.original == want.original
        assert got.value == want.value


def test_validate_pair_modes():
    assert validate_pair(ConsistencyScore(1.0, 30, 30), 0.2)
    assert not validate_pair(ConsistencyScore(0.0, 0, 30), 0.2)
    assert validate_pair(ConsistencyScore(0.05, 2, 40), 0.0)  # filter disabled
    assert validate_pair(ConsistencyScore(0.1, 12, 120), 10, mode="absolute")
    assert not validate_pair(ConsistencyScore(0.1, 8, 80), 10, mode="absolute")
    with pytest.raises(ValueError):
        validate_pair(ConsistencyScore(0.5, 5, 10), 0.2, mode="quantile")


def test_score_bounds(small_world, small_scores):
    for (_, _, _), s in small_scores.items():
        assert 0.0 <= s.value <= 1.0
        if s.original > 0:
            assert s.value == s.kept / s.original


def test_world_scores_equal_per_pair_scores(small_world, small_variants, small_scores):
    """Every entry of the batch scorer equals the per-pair scorer, which
    criterion 3 pins to a brute-force oracle, for the same (q, p, prompt)."""
    by_id = {v.id: v for v in small_world.map_views}
    prompts = {v.condition for vs in small_variants.values() for v in vs}
    assert len(small_scores) == 2 * len(small_world.matching_pairs) * len(prompts)
    partial = 0
    for (q_id, p_id, prompt), got in small_scores.items():
        (variant,) = [v for v in small_variants[q_id] if v.condition == prompt]
        want = consistency_score(by_id[q_id], by_id[p_id], variant, MatchParams())
        assert (got.kept, got.original, got.value) == (want.kept, want.original, want.value)
        partial += 0 < got.kept < got.original
    assert partial > 0


def test_consistency_of_pair_with_itself_relabeled():
    rng = np.random.default_rng(10)
    q, p = _paired_views(rng, 30, 16)
    relabeled = apply_variant(q, identity_shift("relabel", 16), seed=0)
    assert consistency_score(q, p, relabeled, MatchParams()).value == 1.0


def test_keypoint_corruption_caught_by_identity_check():
    """Failure injection: moving keypoints while keeping descriptors intact.
    The pair score keys its intersection on the unaltered p side, so it stays
    high: the score `s` does not catch keypoints that a generator moves."""
    rng = np.random.default_rng(11)
    q, p = _paired_views(rng, 40, 16)
    broken = identity_shift("broken", 16)
    broken.keypoint_corruption_sigma = 50.0
    variant = apply_variant(q, broken, seed=3)
    assert consistency_score(q, p, variant, MatchParams()).value > 0.8
