"""The array-at-a-time `variants` stage against reference copies of its
earlier per-feature form: the consistency scorer (per-variant matching,
area-of-interest filtering and survival count), `apply_variant` and the
feature CSV codec must give the same scores, bits and bytes."""

import dataclasses
import math

import numpy as np
import pytest

from synthloc import storage
from synthloc.geometry import (
    ConsistencyScore,
    MatchParams,
    consistency_score,
    score_world_variants,
)
from synthloc.variants import apply_variant, default_prompt_set, identity_shift
from synthloc.worldgen import ViewImage

from conftest import make_view, match_pairs, perturbed

# ---------------------------------------------------------------- reference


def ref_match(a, b, ratio):
    da, db = a.descriptors(), b.descriptors()
    d2 = np.maximum(
        np.sum(da * da, axis=1)[:, None] + np.sum(db * db, axis=1)[None, :] - 2.0 * (da @ db.T),
        0.0,
    )
    dist = np.sqrt(d2)
    nn_ab = np.argmin(dist, axis=1)
    nn_ba = np.argmin(dist, axis=0)
    na, nb = dist.shape
    if nb >= 2:
        two = np.partition(dist, 1, axis=1)[:, :2]
        ratio_a = two[:, 0] <= ratio * two[:, 1]
    else:
        ratio_a = np.ones(na, dtype=bool)
    if na >= 2:
        two = np.partition(dist, 1, axis=0)[:2, :]
        ratio_b = two[0, :] <= ratio * two[1, :]
    else:
        ratio_b = np.ones(nb, dtype=bool)
    keep = (nn_ba[nn_ab] == np.arange(na)) & ratio_a & ratio_b[nn_ab]
    return [(int(i), int(nn_ab[i])) for i in np.nonzero(keep)[0]]


def ref_aoi(pairs, a, b):
    la, lb = a.landmark_ids(), b.landmark_ids()
    return [(i, j) for (i, j) in pairs if la[i] >= 0 and lb[j] >= 0]


def ref_consistency(q, p, variant, params):
    c_qp = ref_aoi(ref_match(q, p, params.ratio), q, p)
    if not c_qp:
        return ConsistencyScore(0.0, 0, 0)
    c_vp = ref_aoi(ref_match(variant, p, params.ratio), variant, p)
    original = len(c_qp)
    if not c_vp:
        return ConsistencyScore(0.0, 0, original)
    kp_p = p.keypoints()
    kp_qp = kp_p[[j for (_, j) in c_qp]]
    kp_vp = kp_p[[j for (_, j) in c_vp]]
    dist = np.linalg.norm(kp_vp[None, :, :] - kp_qp[:, None, :], axis=2)
    kept = int(np.count_nonzero(dist.min(axis=1) <= params.pixel_tol))
    return ConsistencyScore(kept / original, kept, original)


def ref_score_world(world, variants, params, prompt_names=None):
    by_id = {v.id: v for v in world.map_views}
    out = []
    for a, b, _ in world.matching_pairs:
        for q_id, p_id in ((a, b), (b, a)):
            for variant in variants.get(q_id, []):
                if prompt_names is not None and variant.condition not in prompt_names:
                    continue
                score = ref_consistency(by_id[q_id], by_id[p_id], variant, params)
                out.append(((q_id, p_id, variant.condition), score))
    return out


def ref_apply_variant(view, shift, seed):
    """One feature at a time: the dropout draw for all, then each kept
    feature's descriptor and keypoint draws, then each clutter row."""
    rng = np.random.default_rng(seed)
    n = len(view.lid)
    keep = rng.random(n) >= shift.dropout_rate
    d = view.desc.shape[1]
    kps, descs, lids = [], [], []
    for i in range(n):
        if not keep[i]:
            continue
        desc = (
            view.desc[i]
            + shift.bias_gain * shift.descriptor_bias
            + shift.descriptor_noise_sigma * rng.standard_normal(d)
        )
        desc = desc / np.linalg.norm(desc)
        kp = view.kp[i]
        if shift.keypoint_corruption_sigma > 0.0:
            kp = kp + shift.keypoint_corruption_sigma * rng.standard_normal(2)
        kps.append(kp)
        descs.append(desc)
        lids.append(int(view.lid[i]))
    w, h = view.intrinsics.image_size
    for _ in range(math.ceil(shift.clutter_rate * n)):
        kp = rng.uniform(0.0, [w, h])
        desc = rng.standard_normal(d)
        desc = desc / np.linalg.norm(desc)
        kps.append(kp)
        descs.append(desc)
        lids.append(-1)
    return ViewImage(
        view.id, view.pose, view.intrinsics,
        np.array(kps, dtype=float).reshape(-1, 2), np.array(descs, dtype=float).reshape(-1, d),
        np.array(lids, dtype=int), condition=shift.name,
    )


def ref_feature_lines(view):
    d = view.desc.shape[1]
    lines = ["u,v,landmark_id," + ",".join(f"desc{i}" for i in range(d))]
    for i in range(len(view.lid)):
        lines.append(
            ",".join(
                [storage.fmt(view.kp[i][0]), storage.fmt(view.kp[i][1]), str(int(view.lid[i]))]
                + [storage.fmt(x) for x in view.desc[i]]
            )
        )
    return lines


def ref_parse_features(lines):
    rows = [ln.split(",") for ln in lines[1:]]
    return (
        np.array([[float(r[0]), float(r[1])] for r in rows]),
        np.array([[float(x) for x in r[3:]] for r in rows]),
        np.array([max(int(r[2]), -1) for r in rows]),
    )


def array_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def view_bytes(view):
    return array_bytes((view.keypoints(), view.descriptors(), view.landmark_ids()))


def score_tuple(s):
    return (s.kept, s.original, s.value)


# ---------------------------------------------------------------- scorer


def test_world_scores_equal_reference(small_world, small_variants, small_scores):
    want = ref_score_world(small_world, small_variants, MatchParams())
    assert [key for key, _ in small_scores.items()] == [key for key, _ in want]
    for key, s in want:
        assert score_tuple(small_scores.get(*key)) == score_tuple(s), key


def test_world_scores_prompt_filter_equal_reference(small_world, small_variants):
    names = ["at sunset", "at night", "not a prompt"]
    params = MatchParams(ratio=0.8, pixel_tol=1.0)
    got = score_world_variants(small_world, small_variants, params, prompt_names=names)
    want = ref_score_world(small_world, small_variants, params, prompt_names=names)
    assert len(got) == len(want) == 2 * len(small_world.matching_pairs) * 2
    assert [(k, score_tuple(s)) for k, s in got.items()] == [(k, score_tuple(s)) for k, s in want]


# the smallest ratio MatchParams accepts: only a zero distance passes it
TINY = float(np.nextafter(0.0, 1.0))


def test_match_features_equal_reference():
    for trial in range(30):
        rng = np.random.default_rng(700 + trial)
        a = make_view(rng, int(rng.integers(1, 25)), 8, n_clutter=int(rng.integers(0, 3)))
        b = make_view(rng, int(rng.integers(1, 25)), 8)
        for ratio in (TINY, 0.8, 1.0):
            assert match_pairs(a, b, MatchParams(ratio=ratio)) == ref_match(a, b, ratio)


def test_match_features_ties_equal_reference():
    """Zero distances and duplicated rows put the ratio test on its boundary
    and make argmin break ties."""
    rng = np.random.default_rng(45)
    a = make_view(rng, 8, 8)
    b = make_view(rng, 8, 8)
    desc = b.desc.copy()
    desc[[1, 4, 5]] = a.desc[2]
    desc[6] = a.desc[3]
    b = dataclasses.replace(b, desc=desc)
    for x, y in ((a, a), (a, b), (b, a), (b, b)):
        for ratio in (TINY, 0.9, 1.0):
            got = match_pairs(x, y, MatchParams(ratio=ratio))
            assert got == ref_match(x, y, ratio)
    # the duplicated rows tie at distance 0, which passes even the tiniest ratio
    assert (2, 1) in match_pairs(a, b, MatchParams(ratio=TINY))
    # one feature on both sides: the ratio test does not apply at all
    one_a, one_b = make_view(rng, 1, 8), make_view(rng, 1, 8)
    assert match_pairs(one_a, one_b, MatchParams(ratio=TINY)) == [(0, 0)]
    assert ref_match(one_a, one_b, TINY) == [(0, 0)]


def _pair(rng, n, d=16, noise=0.02):
    q = make_view(rng, n, d, view_id=0)
    p = make_view(rng, n, d, view_id=1)
    return q, dataclasses.replace(p, desc=perturbed(rng, q.desc, noise))


def _check(q, p, variant, params=MatchParams()):
    got = consistency_score(q, p, variant, params)
    want = ref_consistency(q, p, variant, params)
    assert score_tuple(got) == score_tuple(want)
    return got


def test_scorer_edge_cases_equal_reference():
    params = MatchParams()
    ps = default_prompt_set(16, seed=0)
    rng = np.random.default_rng(41)
    q, p = _pair(rng, 30)

    # every prompt, the ordinary path
    for j, shift in enumerate(ps.shifts):
        _check(q, p, apply_variant(q, shift, seed=j))

    # p with a single feature: the (q, p) and (variant, p) blocks have nb = 1
    single_p = make_view(np.random.default_rng(42), 1, 16, view_id=1)
    single_p = dataclasses.replace(single_p, desc=q.desc[:1])
    assert _check(q, single_p, apply_variant(q, ps.shifts[0], seed=1)).original == 1

    # a variant with a single feature: na = 1 on the variant side
    lone = identity_shift("lone", 16)
    lone.dropout_rate = 0.97
    variant = apply_variant(q, lone, seed=0)
    for seed in range(1, 200):
        if len(variant.lid) == 1:
            break
        variant = apply_variant(q, lone, seed=seed)
    assert len(variant.lid) == 1
    _check(q, p, variant)

    # only clutter left in the variant
    dead = identity_shift("dead", 16)
    dead.dropout_rate = 1.0
    dead.clutter_rate = 0.3
    gone = apply_variant(q, dead, seed=3)
    assert np.all(gone.lid == -1)
    s = _check(q, p, gone)
    assert s.kept == 0 and s.original > 0

    # empty c_qp: q shares no descriptors with p
    stranger = make_view(np.random.default_rng(43), 30, 16, view_id=0)
    s = _check(stranger, p, apply_variant(stranger, ps.shifts[2], seed=4), MatchParams(ratio=0.3))
    assert s.original == 0


def test_scorer_pixel_tol_boundary_equal_reference():
    """p's keypoints sit exactly `pixel_tol` apart; a variant that keeps every
    other feature still keeps each correspondence through its neighbour."""
    q, p = _pair(np.random.default_rng(46), 6)
    p = dataclasses.replace(p, kp=[[10.0 + 2.0 * j, 50.0] for j in range(6)])
    odd = ViewImage(q.id, q.pose, q.intrinsics, q.kp[1::2], q.desc[1::2], q.lid[1::2], condition="odd")
    s = _check(q, p, odd, MatchParams(pixel_tol=2.0))
    assert (s.kept, s.original) == (6, 6)
    s = _check(q, p, odd, MatchParams(pixel_tol=1.999))
    assert (s.kept, s.original) == (3, 6)


def test_scorer_random_pairs_equal_reference():
    ps = default_prompt_set(16, seed=1)
    for trial in range(15):
        rng = np.random.default_rng(800 + trial)
        q, p = _pair(rng, int(rng.integers(2, 40)), noise=0.05)
        shift = ps.shifts[trial % len(ps.shifts)]
        params = MatchParams(ratio=float(rng.uniform(0.6, 1.0)), pixel_tol=float(rng.uniform(0.5, 3)))
        _check(q, p, apply_variant(q, shift, seed=trial), params)


# ---------------------------------------------------------------- apply_variant


def test_apply_variant_equals_reference_for_every_prompt(small_world, small_prompts):
    for view in small_world.map_views[:6] + small_world.query_views[:2]:
        for j, shift in enumerate(small_prompts.shifts):
            seed = 1000 * view.id + j
            got = apply_variant(view, shift, seed)
            assert view_bytes(got) == view_bytes(ref_apply_variant(view, shift, seed))
            assert got.condition == shift.name


@pytest.mark.parametrize("sigma, dropout", [(2.5, None), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_apply_variant_equals_reference_corruption_and_dropout(small_world, small_prompts, sigma, dropout):
    for view in small_world.map_views[:4]:
        for j, base in enumerate(small_prompts.shifts[:4]):
            shift = default_prompt_set(16, seed=0).by_name(base.name)
            shift.keypoint_corruption_sigma = sigma
            if dropout is not None:
                shift.dropout_rate = dropout
            got = apply_variant(view, shift, seed=j)
            assert view_bytes(got) == view_bytes(ref_apply_variant(view, shift, seed=j))


# ---------------------------------------------------------------- codec


def _awkward_view():
    """Signed zeros, exponent-form values of %.9g and clutter rows."""
    view = make_view(np.random.default_rng(44), 12, 8, n_clutter=3)
    kp, desc, lid = view.kp.copy(), view.desc.copy(), view.lid.copy()
    kp[0] = [-0.0, 0.0]
    desc[0] = [-0.0, 1e-7, -2.5e-9, 1.2345678912e6, 3e5, -7.77e15, 0.5, 1e-300]
    kp[1] = [123456789.123, 1e-6]
    desc[2] = desc[2] * 1e12
    lid[3] = 0
    return dataclasses.replace(view, kp=kp, desc=desc, lid=lid)


def test_feature_lines_equal_reference(small_variants):
    views = [_awkward_view()] + [v for vs in list(small_variants.values())[:3] for v in vs]
    for view in views:
        lines = storage._feature_lines(view)
        assert lines == ref_feature_lines(view)
        got = storage._parse_features(lines, "view.csv")
        assert array_bytes(got) == array_bytes(ref_parse_features(lines))
    assert np.any(got[2] == -1)
    assert "-0,0,0,-0,1e-07," in storage._feature_lines(views[0])[1]
