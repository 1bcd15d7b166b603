import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from synthloc import localize, quats
from synthloc.embed import EmbeddingModel, init_model
from synthloc.errors import ConfigError, InsufficientCorrespondencesError, NoConsensusError
from synthloc.experiment import config_from_dict
from synthloc.geometry import MatchParams
from synthloc.index import build_index, retrieve
from synthloc.localize import (
    LEVELS,
    PoseError,
    RansacParams,
    ewb_pose,
    localization_rate,
    pnp_ransac,
    pose_error,
    recall_at_k,
    sfm_localize,
)
from synthloc.variants import default_prompt_set, shift_queries
from synthloc.worldgen import FOCAL, PRINCIPAL_POINT, CameraPose, Landmarks, ViewImage, derive_seed, project_points

from conftest import (
    bearings,
    count_hypotheses,
    count_oracle_iterations,
    from_axis_angle,
    landmark_set,
    outcome,
    p3p_oracle,
    pnp_oracle,
    sample_oracle,
)

def random_pose(rng, angle_max=0.5):
    axis = rng.standard_normal(3)
    return CameraPose(
        rotation=from_axis_angle(axis, rng.uniform(0.0, angle_max)),
        position=rng.uniform(-2.0, 2.0, 3),
    )


def synth_correspondences(rng, pose, n, depth=(5.0, 15.0)):
    """The (n, 2) pixels and (n, 3) points of n points at the given depths,
    seen from `pose` without noise."""
    R = pose.matrix()
    cam = np.column_stack(
        [rng.uniform(-3, 3, n), rng.uniform(-2, 2, n), rng.uniform(*depth, n)]
    )
    pts = cam @ R + pose.position
    uv, z = project_points(pts, pose)
    assert np.all(z > 0)
    return uv, pts


def joined(*corrs):
    """The (pixels, points) correspondences of each pair, one after another."""
    return tuple(np.concatenate(arrays) for arrays in zip(*corrs))


def leading(corr, m):
    """The first m of the (pixels, points) correspondences."""
    return tuple(a[:m] for a in corr)


# ---------------------------------------------------------------- ewb


def test_ewb_k1_is_top1_exactly():
    rng = np.random.default_rng(0)
    poses = {i: random_pose(rng) for i in range(5)}
    ranked = [(3, 0.9), (1, 0.8), (0, 0.7)]
    est = ewb_pose(ranked, poses, k=1)
    assert est is poses[3]


def test_ewb_position_mean():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    poses = {
        0: CameraPose(q, np.array([0.0, 0.0, 0.0])),
        1: CameraPose(q, np.array([2.0, 0.0, 0.0])),
    }
    est = ewb_pose([(0, 1.0), (1, 0.9)], poses, k=2)
    assert np.allclose(est.position, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(est.rotation, q, atol=1e-15)


def test_ewb_rotation_mean_45deg():
    poses = {
        0: CameraPose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3)),
        1: CameraPose(from_axis_angle([0, 0, 1], np.pi / 2), np.zeros(3)),
    }
    est = ewb_pose([(0, 1.0), (1, 0.9)], poses, k=2)
    angle = quats.rotation_angle_deg(est.matrix())
    assert abs(angle - 45.0) < 1e-9


def test_ewb_identical_poses_exact():
    pose = CameraPose(from_axis_angle([1, 2, 3], 0.3), np.array([0.1, 0.2, 0.3]))
    poses = {i: pose for i in range(4)}
    est = ewb_pose([(i, 1.0 - 0.1 * i) for i in range(4)], poses, k=4)
    assert np.array_equal(est.position, pose.position)
    assert np.array_equal(est.rotation, pose.rotation)


def test_ewb_empty_ranking():
    with pytest.raises(ValueError, match="empty ranking"):
        ewb_pose([], {}, k=1)


# ---------------------------------------------------------------- pnp


def test_pnp_exact_recovery():
    rng = np.random.default_rng(1)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 20)
    est, inliers = pnp_ransac(*corr, RansacParams(seed=0))
    err = pose_error(est, pose)
    assert err.translation < 1e-6
    assert err.rotation < 1e-5
    assert inliers.tolist() == list(range(20))


def test_pnp_insufficient():
    rng = np.random.default_rng(2)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 5)
    with pytest.raises(InsufficientCorrespondencesError):
        pnp_ransac(*corr, RansacParams())


@pytest.mark.parametrize(
    "pixels_shape,points_shape",
    [((20, 3), (20, 3)), ((20, 2), (20, 2)), ((20, 2), (19, 3)), ((40,), (20, 3))],
    ids=["pixels not (n, 2)", "points not (n, 3)", "n differs", "flat pixels"],
)
def test_pnp_rejects_arrays_of_the_wrong_shape(pixels_shape, points_shape):
    """A caller's pixels must be (n, 2) and its points (n, 3), with one n;
    the error names both shapes."""
    with pytest.raises(ValueError, match=re.escape(f"pixels {pixels_shape} and points {points_shape}")):
        pnp_ransac(np.zeros(pixels_shape), np.zeros(points_shape), RansacParams())


def test_pnp_planted_outliers():
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 20)
    R = pose.matrix()
    bad_pts = (
        np.column_stack([rng.uniform(-3, 3, 20), rng.uniform(-2, 2, 20), rng.uniform(5, 15, 20)])
        @ R
        + pose.position
    )
    bad_uv = rng.uniform([0, 0], [640, 480], (20, 2))
    est, inliers = pnp_ransac(*joined(corr, (bad_uv, bad_pts)), RansacParams(inlier_px=2.0, seed=7))
    assert pose_error(est, pose).translation < 1e-3
    assert inliers.tolist() == list(range(20))


def test_pnp_no_consensus():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, (12, 3)) + np.array([0, 0, 10.0])
    uv = rng.uniform([0, 0], [640, 480], (12, 2))
    with pytest.raises(NoConsensusError):
        pnp_ransac(uv, pts, RansacParams(inlier_px=0.5, min_inliers=8, iterations=200, seed=0))


def test_pnp_seed_invariant_on_clean_input():
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 30)
    for seed in (0, 1, 42, 1234):
        est, _ = pnp_ransac(*corr, RansacParams(seed=seed))
        assert pose_error(est, pose).translation < 1e-6


def test_pnp_recovers_render_pose_from_view_features(small_world):
    """Projection and pose estimation agree on the camera convention: a
    zero-noise rendered view's own (keypoint, landmark) pairs recover the
    render pose to numerical precision."""
    from synthloc.worldgen import RenderNoise, render_view

    view = small_world.map_views[5]
    clean = render_view(
        small_world, view.pose, RenderNoise(0.0, 0.0, 0), seed=0,
        max_dist=30.0,
    )
    points = small_world.landmarks.positions[clean.lid]
    est, inliers = pnp_ransac(clean.kp, points, RansacParams(seed=0))
    err = pose_error(est, view.pose)
    assert err.translation < 1e-6
    assert err.rotation < 1e-5
    assert len(inliers) == len(points)


@pytest.mark.parametrize(
    "field,value",
    [
        ("iterations", 0),
        ("iterations", "1000"),
        ("iterations", True),
        ("iterations", 10.0),
        ("inlier_px", 0.0),
        ("inlier_px", float("nan")),
        ("inlier_px", float("inf")),
        ("inlier_px", "3"),
        ("min_inliers", -1),
        ("min_inliers", 8.0),
        ("confidence", 0.0),
        ("confidence", 1.0),
        ("confidence", float("nan")),
    ],
)
def test_ransac_params_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RansacParams(**{field: value})


def criterion_6_instances(count):
    """The first `count` clean and 50%-outlier instances of criterion 6."""
    rng = np.random.default_rng(606)
    for trial in range(count):
        pose = CameraPose(
            from_axis_angle(rng.standard_normal(3), rng.uniform(0, 0.5)),
            rng.uniform(-2, 2, 3),
        )
        corr = synth_correspondences(rng, pose, 20)
        bad_pts = (
            np.column_stack([rng.uniform(-3, 3, 20), rng.uniform(-2, 2, 20), rng.uniform(5, 15, 20)])
            @ pose.matrix()
            + pose.position
        )
        bad_uv = rng.uniform([0, 0], [640, 480], (20, 2))
        yield trial, corr, joined(corr, (bad_uv, bad_pts))


def test_pnp_matches_oracle_on_criterion_6_instances():
    for trial, clean, noisy in criterion_6_instances(20):
        for corr, params in (
            (clean, RansacParams(seed=trial)),
            (noisy, RansacParams(inlier_px=2.0, seed=trial)),
        ):
            assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params)


def no_consensus_instance():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, (12, 3)) + np.array([0, 0, 10.0])
    uv = rng.uniform([0, 0], [640, 480], (12, 2))
    return (uv, pts), RansacParams(inlier_px=0.5, min_inliers=8, iterations=200, seed=0)


def test_pnp_matches_oracle_on_no_consensus():
    corr, params = no_consensus_instance()
    assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params) == NoConsensusError


def test_pnp_without_consensus_stops_at_the_consensus_bound(monkeypatch):
    """No hypothesis of the 12 random points reaches 8 inliers, so the solve
    ends once a consensus of 8, had one existed, would have had a sample drawn
    from it alone with probability 0.99: three distinct points of 12 all fall
    in a given 8 with probability C(8, 3) / C(12, 3) = 56 / 220, which takes
    ceil(log(0.01) / log(1 - 56 / 220)) = 16 hypotheses, not the 200 of the
    budget."""
    corr, params = no_consensus_instance()
    solved = count_hypotheses(monkeypatch)
    assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params) == NoConsensusError
    assert sum(solved) == 16


@pytest.mark.parametrize("clean", [True, False])
def test_pnp_on_thousands_of_correspondences(monkeypatch, clean):
    """Three distinct points of 5,000 fall inside a given 8 with probability
    C(8, 3) / C(5000, 3), about 2.7e-9, so the stop before a consensus is the
    budget. A clean set agrees whole on the first hypothesis, so it is the
    only sample solved; random pixels run the 40 of the budget, as a best count
    of a few inliers gives a stop past it too. Within 10 px a pose catches
    about 5 of 5,000 random pixels by chance, and the best of the 40 catches 11:
    a chance consensus over the 8 required, which the refined pose keeps."""
    rng = np.random.default_rng(5)
    corr = synth_correspondences(rng, random_pose(rng), 5000)
    if not clean:
        corr = rng.uniform([0, 0], [640, 480], (5000, 2)), corr[1]
    params = RansacParams(iterations=40, inlier_px=10.0, seed=0)
    solved = count_hypotheses(monkeypatch)
    got = outcome(pnp_ransac, *corr, params)
    assert got == outcome(pnp_oracle, *corr, params)
    if clean:
        assert len(got[2]) == 5000 and solved == [1]
    else:
        assert len(got[2]) == 12 and sum(solved) == 40


def test_pnp_with_a_tiny_confidence_draws_one_hypothesis(monkeypatch):
    """Below about 1.1e-16, 1 - confidence rounds to 1 and the stop comes to
    0 draws; the solve still draws one, and a clean instance localizes."""
    _trial, clean, _noisy = next(criterion_6_instances(1))
    params = RansacParams(confidence=1e-17, seed=0)
    solved = count_hypotheses(monkeypatch)
    got = outcome(pnp_ransac, *clean, params)
    assert got == outcome(pnp_oracle, *clean, params)
    assert len(got[2]) == 20 and solved == [1]


@pytest.mark.parametrize("iterations", [1, 7, 33, 65])
def test_pnp_matches_oracle_on_odd_budgets(iterations):
    """Small and odd budgets: the walk stops at the budget, as the oracle's loop does."""
    for trial, _clean, noisy in criterion_6_instances(5):
        params = RansacParams(iterations=iterations, inlier_px=2.0, seed=trial)
        assert outcome(pnp_ransac, *noisy, params) == outcome(pnp_oracle, *noisy, params)


@pytest.mark.parametrize("min_inliers", [7, 8, 12])
def test_pnp_below_min_inliers_solves_nothing(monkeypatch, min_inliers):
    """With one correspondence fewer than min_inliers no mask can reach
    min_inliers, so the solve fails as the oracle's loop does, without
    solving a hypothesis; with exactly min_inliers it runs as before."""
    calls = count_hypotheses(monkeypatch)
    for trial, clean, _noisy in criterion_6_instances(3):
        for corr in (clean, jittered(clean, trial, sigma=1.0)):
            params = RansacParams(iterations=200, seed=trial, min_inliers=min_inliers)
            calls.clear()
            hopeless = outcome(pnp_ransac, *leading(corr, min_inliers - 1), params)
            assert hopeless == outcome(pnp_oracle, *leading(corr, min_inliers - 1), params)
            assert hopeless == NoConsensusError and calls == []
            exact = outcome(pnp_ransac, *leading(corr, min_inliers), params)
            assert exact == outcome(pnp_oracle, *leading(corr, min_inliers), params)
            assert calls
        assert outcome(pnp_ransac, *leading(clean, min_inliers), params)[2] == list(range(min_inliers))


def jittered(corr, seed, sigma=0.05):
    """The pixels plus N(0, sigma^2) noise, drawn row by row; the points as they are."""
    rng = np.random.default_rng(seed)
    pixels, points = corr
    return pixels + rng.normal(0.0, sigma, pixels.shape), points


# Pixel noise spreads the inlier counts, and a low confidence stops the loop
# after a few hypotheses: later samples, which may count more inliers, must
# then go undrawn.
STOPS_EARLY = dict(inlier_px=1.0, min_inliers=6, confidence=0.5)


def test_pnp_matches_oracle_when_stopping_early():
    for trial, clean, _noisy in criterion_6_instances(10):
        corr = jittered(clean, trial)
        params = RansacParams(seed=trial, **STOPS_EARLY)
        assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params)


def test_pnp_matches_oracle_when_the_solve_fails(monkeypatch):
    """A NaN point makes every sample that holds it give a non-finite quartic
    and so no pose: such a sample counts 0 with an empty mask, counts as an
    iteration and never wins, without an exception or a warning."""
    solved = []
    solve = localize._hypothesis

    def spy(sample, *args):
        count, mask, pose = solve(sample, *args)
        solved.append((sample, mask, count))
        return count, mask, pose

    monkeypatch.setattr(localize, "_hypothesis", spy)
    nan = (np.array([[320.0, 240.0]]), np.array([[np.nan, 0.0, 10.0]]))
    for trial, clean, _noisy in criterion_6_instances(10):
        for corr, params in (
            (joined(clean, nan), RansacParams(seed=trial)),
            (joined(jittered(clean, trial), nan), RansacParams(seed=trial, **STOPS_EARLY)),
        ):
            assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params)
        assert outcome(pnp_ransac, *joined(clean, nan), RansacParams(seed=trial))[2] == list(range(20))
    held = [(m, c) for s, m, c in solved if 20 in s]
    assert len(held) > 10 and all(c == 0 and not m.any() for m, c in held)


def test_solves_the_samples_the_oracle_draws(monkeypatch, sfm_solves):
    """pnp_ransac solves a sample only when its walk reaches it: the samples
    it solves are as many as the iterations of the oracle's one-at-a-time
    loop, on criterion 6's clean and 50%-outlier instances, on jittered ones
    that stop after a few samples, and on the recorded sfm solves. Below
    max(min_inliers, 6) points it solves none, where the oracle's loop runs
    (test_pnp_below_min_inliers_solves_nothing)."""
    solves = [(corr, params) for trial, clean, noisy in criterion_6_instances(20) for corr, params in (
        (clean, RansacParams(seed=trial)),
        (noisy, RansacParams(inlier_px=2.0, seed=trial)),
        (jittered(clean, trial), RansacParams(seed=trial, **STOPS_EARLY)),
    )]
    solves += [((pixels, points), params) for pixels, points, params in sfm_solves]
    solved, iterations = count_hypotheses(monkeypatch), count_oracle_iterations(monkeypatch)
    for corr, params in solves:
        solved.clear()
        iterations.clear()
        assert outcome(pnp_ransac, *corr, params) == outcome(pnp_oracle, *corr, params)
        assert len(solved) == (len(iterations) if len(corr[0]) >= max(params.min_inliers, 6) else 0)
    assert len(solves) == 180


@pytest.mark.parametrize("angle_deg,offset_m", [(1.0, 0.05), (0.0, 0.0)])
def test_refine_steps_toward_a_planted_pose(angle_deg, offset_m):
    """`_refine` on 20 noiseless correspondences of each of 20 planted poses,
    from the pose turned by `angle_deg` and moved by `offset_m`. Measured as
    the largest change of a rotation entry or center coordinate, the error e
    of a perturbed start falls to under 10 e² per step, as a Newton step's
    does (at most 4.9 e² over 200 poses), and to under 1e-4 of the start in
    two steps: one step from 0.05 leaves about 2e-3, a second about 1e-6.
    From the exact pose the step stays within 1e-12."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        pose = random_pose(rng)
        pixels, points = synth_correspondences(rng, pose, 20)
        norm_xy = (pixels - PRINCIPAL_POINT) / FOCAL
        R = quats.to_matrix(from_axis_angle(rng.standard_normal(3), np.radians(angle_deg))) @ pose.matrix()
        shift = rng.standard_normal(3)
        C = pose.position + offset_m * shift / np.linalg.norm(shift)
        errors = [max(np.abs(R - pose.matrix()).max(), np.abs(C - pose.position).max())]
        for _step in range(2):
            R, C = localize._refine(R, C, points, norm_xy)
            errors.append(max(np.abs(R - pose.matrix()).max(), np.abs(C - pose.position).max()))
        if offset_m:
            assert errors[1] < 10 * errors[0] ** 2 and errors[2] < 10 * errors[1] ** 2
            assert errors[2] < 1e-4 * errors[0]
        else:
            assert errors[1] < 1e-12


def planted_triangles(rng, count):
    """`count` noise-free samples of criterion 6's scene: three points at
    depths 5 to 15 in front of a random pose, with their unit bearings."""
    X, f, R, C = [], [], [], []
    for _ in range(count):
        pose = CameraPose(from_axis_angle(rng.standard_normal(3), rng.uniform(0, 0.5)), rng.uniform(-2, 2, 3))
        cam = np.column_stack([rng.uniform(-3, 3, 3), rng.uniform(-2, 2, 3), rng.uniform(5, 15, 3)])
        X.append(cam @ pose.matrix() + pose.position)
        f.append(cam / np.linalg.norm(cam, axis=1, keepdims=True))
        R.append(pose.matrix())
        C.append(pose.position)
    return tuple(map(np.array, (X, f, R, C)))


def test_p3p_finds_the_planted_pose():
    """On 1,000 random noise-free triangles the planted pose is among the
    solutions, every rotation entry and center coordinate within 1e-9. Over
    40,000 such triangles the worst was 1.1e-10; Grunert's linear formula
    for the second depth, 0/0 where two solutions share a root v, had left
    errors up to 3e-4, and one Newton step up to 8e-8 at near-double roots."""
    X, f, R, C = planted_triangles(np.random.default_rng(28), 1000)
    best = []
    for i in range(1000):
        roots, Rs, Cs = localize._p3p(X[i], f[i])
        assert len(roots) == len(Rs) == len(Cs) and all(v > 0 for v in roots)
        best.append(np.maximum(np.abs(Rs - R[i]).max(axis=(1, 2)), np.abs(Cs - C[i]).max(axis=1)).min())
    assert max(best) < 1e-9


def test_p3p_matches_the_oracle_on_planted_triangles():
    """Each sample's solutions, ordered by root, are the per-sample oracle's:
    the same roots to 1e-9 (the two round the quartic's coefficients
    differently) and, after the Newton steps, the same poses to 1e-9."""
    X, f, _R, _C = planted_triangles(np.random.default_rng(29), 200)
    for i in range(200):
        roots, Rs, Cs = localize._p3p(X[i], f[i])
        mine = np.argsort(roots, kind="stable")
        want = p3p_oracle(X[i], f[i])
        assert np.allclose(np.array(roots)[mine], [v for v, _, _ in want], rtol=1e-9, atol=0)
        for j, (_v, R, C) in zip(mine, want):
            assert np.abs(Rs[j] - R).max() < 1e-9 and np.abs(Cs[j] - C).max() < 1e-9


def degenerate_samples():
    """Samples of a camera at the origin looking along z: three exactly
    collinear points, two and three coincident points, and a NaN point."""
    X = {
        "collinear": [[-1.0, 0.0, 8.0], [0.0, 1.0, 9.0], [1.0, 2.0, 10.0]],
        "first two coincide": [[1.0, 1.0, 8.0], [1.0, 1.0, 8.0], [-2.0, 1.0, 12.0]],
        "first and last coincide": [[1.0, 1.0, 8.0], [0.0, -1.0, 9.0], [1.0, 1.0, 8.0]],
        "all coincide": [[1.0, 1.0, 8.0]] * 3,
        "NaN point": [[1.0, 1.0, 8.0], [np.nan, 0.0, 9.0], [-2.0, 1.0, 12.0]],
    }
    X = np.array(list(X.values()))
    with np.errstate(invalid="ignore"):
        return X, X / np.linalg.norm(X, axis=2, keepdims=True)


def test_degenerate_samples_give_no_pose():
    """Collinear, coincident and NaN samples give no finite pose, and score
    no inliers with an empty mask, with no exception and no warning (the
    suite turns warnings into errors; the check below does so too)."""
    import warnings

    X, f = degenerate_samples()
    pixels = PRINCIPAL_POINT + FOCAL * X[:, :, :2].reshape(-1, 2) / X[:, :, 2:].reshape(-1, 1)
    points = X.reshape(-1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, sample in enumerate(np.arange(len(points)).reshape(-1, 3)):
            _roots, R, C = localize._p3p(X[i], f[i])
            assert not np.any(np.isfinite(R).all(axis=(1, 2)) & np.isfinite(C).all(axis=1))
            count, mask, pose = localize._hypothesis(sample, points, f.reshape(-1, 3), pixels, 3.0)
            assert count == 0 and not mask.any() and pose is None


class Recorded(Exception):
    """Raised in place of a solve once its inputs are recorded."""


def recorded_sfm_solves(world):
    """The (pixels, points, params) that sfm_localize hands to
    pnp_ransac for the world's 20 clean, 20 `at dawn` and 20 `at sunset`
    queries at k = 1 and 5, after cosine top-5 retrieval, with the
    benchmark's RANSAC seeds for seed 7."""
    d = world.landmarks.descriptors.shape[1]
    prompts = default_prompt_set(d, seed=0)
    queries = shift_queries(world, prompts, ["at dawn", "at sunset"], seed=7)
    model = EmbeddingModel(np.eye(d))
    index = build_index(world.map_views, model)
    map_views = {v.id: v for v in world.map_views}
    solves = []

    def record(pixels, points, params):
        solves.append((pixels, points, params))
        raise Recorded

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(localize, "pnp_ransac", record)
        for q in queries:
            ranked = retrieve(q, index, model, "global_cosine", k=5)
            for k in (1, 5):
                with pytest.raises(Recorded):
                    sfm_localize(
                        q, ranked, map_views, world.landmarks, model, k, MatchParams(),
                        RansacParams(seed=derive_seed(7, q.id)),
                    )
    return solves


def test_hypotheses_match_the_oracle_on_drawn_samples(sfm_solves):
    """32 samples drawn for each recorded solve, solved by `_hypothesis` and
    by the oracle, most of them never reached by a solve's walk: each mask
    and count is the oracle's. Some of these samples have poses that tie on
    the count with different masks, where the smaller root's mask wins."""
    rng = np.random.default_rng(30)
    differ = []
    for pixels, points, params in sfm_solves:
        if len(pixels) < 6:
            continue
        rays = bearings((pixels - PRINCIPAL_POINT) / FOCAL)
        for _ in range(32):
            sample = rng.choice(len(pixels), 3, replace=False)
            count, mask, _pose = localize._hypothesis(sample, points, rays, pixels, params.inlier_px)
            want, want_count = sample_oracle(sample, points, rays, pixels, params.inlier_px)
            if not (np.array_equal(mask, want) and count == want_count):
                differ.append(sample.tolist())
    assert differ == []


def outcomes_sha256(outcomes):
    """The sha256 of `outcome` results, one line each: the error type's name,
    or the pose's rotation and position bytes in hex and the inlier indices."""
    lines = []
    for got in outcomes:
        if isinstance(got, type):
            lines.append(got.__name__)
        else:
            rotation, position, inliers = got
            lines.append(f"{rotation.hex()} {position.hex()} {' '.join(map(str, inliers))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def sfm_solves(default_world):
    return recorded_sfm_solves(default_world)


def test_pnp_matches_oracle_on_recorded_sfm_solves(monkeypatch, sfm_solves):
    """Real solves: the default world's 120 recorded solves. None of the 40
    `at sunset` solves finds a consensus; the 18 of them with 10 to 24
    correspondences each draw the consensus bound's samples (16 at 12
    points, 165 at 24), none near the 1000 cap. Each sample's inlier mask
    and count equal the P3P oracle's, and the outcomes' digest equals the
    one in tests/data/sfm_solves_sha256.json."""
    solves = sfm_solves
    solved, differ = [], []
    solve = localize._hypothesis

    def spy(sample, points, rays, pixels, inlier_px):
        count, mask, pose = solve(sample, points, rays, pixels, inlier_px)
        solved.append(1)
        want, want_count = sample_oracle(sample, points, rays, pixels, inlier_px)
        if not (np.array_equal(mask, want) and count == want_count):
            differ.append(sample.tolist())
        return count, mask, pose

    monkeypatch.setattr(localize, "_hypothesis", spy)
    outcomes, hypotheses = [], []
    for pixels, points, params in solves:
        solved.clear()
        outcomes.append(outcome(pnp_ransac, pixels, points, params))
        hypotheses.append(sum(solved))
        assert differ == [], "hypothesis masks differ from the P3P oracle's on these samples"
        assert outcomes[-1] == outcome(pnp_oracle, pixels, points, params)
    assert len(solves) == 120
    assert set(outcomes[80:]) == {NoConsensusError, InsufficientCorrespondencesError}
    assert sum(hypotheses[80:]) == 971 and max(hypotheses) == 165
    pinned = json.loads((Path(__file__).parent / "data" / "sfm_solves_sha256.json").read_text())
    assert outcomes_sha256(outcomes) == pinned["outcomes"]


def test_refit_keeps_the_walks_consensus(monkeypatch, sfm_solves):
    """On each of the default world's 120 recorded solves whose walk finds a
    sample with at least max(min_inliers, 6) inliers, the refined pose keeps
    at least as many. An all-inlier DLT refit, an algebraic fit forced onto a
    rotation, lost part of that consensus in 15 of these solves and failed the
    final check in 4 of them, where the P3P pose kept 8, 9, 10 and 24."""
    counts = []
    solve = localize._hypothesis

    def spy(*args):
        found = solve(*args)
        counts.append(found[0])
        return found

    monkeypatch.setattr(localize, "_hypothesis", spy)
    lost = []
    for i, (pixels, points, params) in enumerate(sfm_solves):
        counts.clear()
        got = outcome(pnp_ransac, pixels, points, params)
        best = max(counts, default=0)
        if best >= max(params.min_inliers, 6) and (isinstance(got, type) or len(got[2]) < best):
            lost.append((i, best, got if isinstance(got, type) else len(got[2])))
    assert lost == []


# ---------------------------------------------------------------- sfm localization


def test_sfm_localize_self_view(small_world):
    """A query identical to a map view localizes to that view's pose."""
    model = init_model(16, 8, seed=0)
    view = small_world.map_views[4]
    index = build_index(small_world.map_views, model)
    ranked = retrieve(view, index, model, "global_cosine", k=1)
    assert ranked[0][0] == view.id
    est = sfm_localize(
        view, ranked, {v.id: v for v in small_world.map_views}, small_world.landmarks,
        model, k=1, match_params=MatchParams(), ransac_params=RansacParams(seed=0),
    )
    err = pose_error(est, view.pose)
    # keypoints carry render noise (sigma 0.3 px), so the refit is tight but
    # not exact
    assert err.translation < 0.05
    assert err.rotation < 0.5


def test_sfm_localize_no_shared_landmarks(small_world):
    model = init_model(16, 8, seed=0)
    query = small_world.map_views[0]
    far = [v for v in small_world.map_views if not (landmark_set(v) & landmark_set(query))]
    assert far, "world should contain views disjoint from view 0"
    ranked = [(far[0].id, 1.0)]
    with pytest.raises((NoConsensusError, InsufficientCorrespondencesError)):
        sfm_localize(
            query, ranked, {v.id: v for v in small_world.map_views}, small_world.landmarks,
            model, k=1, match_params=MatchParams(), ransac_params=RansacParams(seed=0),
        )


def test_sfm_localize_keeps_each_landmarks_closest_match(monkeypatch):
    """sfm_localize hands pnp_ransac one row of query keypoint and one of
    landmark position per matched landmark, in landmark id order: its match at the smallest
    descriptor distance, and on an exact tie the first in rank, then in the
    order match_features gives; clutter (landmark -1) is dropped. Offsets of
    0.5 and 0.25 along one axis make the distances exact."""
    eye = np.eye(6, 4)  # query descriptors; rows 4 and 5 are 0
    query = ViewImage(100, CameraPose(np.array([1.0, 0, 0, 0]), np.zeros(3)),
                      np.arange(12.0).reshape(6, 2), eye, np.full(6, -1))
    half, quarter = np.array([0.5, 0, 0, 0]), np.array([0, 0, 0.25, 0])
    views = {
        # rank 1: landmark 5 at 0.5 from query 2, 9 at 0.5 from queries 0 and 4, 7 at 0.5 from query 3
        1: ([2, 0, 1, 3, 4], [5, 9, -1, 7, 9], eye[[2, 0, 1, 3, 4]] + half),
        # rank 2: landmark 7 ties from query 1; landmark 5 is closer from query 5
        2: ([1, 5], [7, 5], np.array([eye[1] + [0, 0.5, 0, 0], eye[5] + quarter])),
    }
    map_views = {vid: ViewImage(vid, query.pose, np.zeros((len(iq), 2)), desc, lid)
                 for vid, (iq, lid, desc) in views.items()}
    landmarks = Landmarks(np.arange(30.0).reshape(10, 3), np.zeros((10, 4)))
    got = []

    def record(pixels, points, params):
        got.append((pixels, points))
        raise Recorded

    monkeypatch.setattr(localize, "match_features", lambda q, view, params: (
        np.array(views[view.id][0]), np.arange(len(views[view.id][0]))))
    monkeypatch.setattr(localize, "pnp_ransac", record)
    with pytest.raises(Recorded):
        sfm_localize(query, [(1, 0.9), (2, 0.8)], map_views, landmarks, None, 2, MatchParams(), RansacParams())
    [(pixels, points)] = got
    want_lid, want_iq = [5, 7, 9], [5, 3, 0]  # each landmark and its query feature
    assert np.array_equal(pixels, query.kp[want_iq]) and np.array_equal(points, landmarks.positions[want_lid])


def test_sfm_beats_ewb_median(small_world):
    """Paired comparison: the PnP protocol is more precise than pose
    averaging on the same retrieved lists."""
    model = init_model(16, 8, seed=1)
    index = build_index(small_world.map_views, model)
    map_views = {v.id: v for v in small_world.map_views}
    map_poses = {v.id: v.pose for v in small_world.map_views}
    ewb_errs, sfm_errs = [], []
    for q in small_world.query_views:
        ranked = retrieve(q, index, model, "global_cosine", k=5)
        ewb_errs.append(pose_error(ewb_pose(ranked, map_poses, 5), q.pose).translation)
        try:
            est = sfm_localize(
                q, ranked, map_views, small_world.landmarks, model, k=5,
                match_params=MatchParams(), ransac_params=RansacParams(seed=q.id),
            )
            sfm_errs.append(pose_error(est, q.pose).translation)
        except (NoConsensusError, InsufficientCorrespondencesError):
            sfm_errs.append(np.inf)
    assert np.median(sfm_errs) < np.median(ewb_errs)


# ---------------------------------------------------------------- metrics


def test_pose_error_trivial():
    pose = CameraPose(from_axis_angle([0, 1, 0], 0.2), np.array([1.0, 2.0, 3.0]))
    err = pose_error(pose, pose)
    assert err.translation == 0.0
    assert err.rotation < 1e-7


def test_pose_error_constructed():
    gt = CameraPose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    est = CameraPose(
        from_axis_angle([0.3, -1.0, 0.5], np.radians(3.0)),
        np.array([0.3, 0.0, 0.0]),
    )
    err = pose_error(est, gt)
    assert abs(err.translation - 0.3) < 1e-12
    assert abs(err.rotation - 3.0) < 1e-9


def test_pose_error_double_cover():
    q = from_axis_angle([1, 1, 1], 0.7)
    a = CameraPose(q, np.zeros(3))
    b = CameraPose(-q, np.zeros(3))
    assert pose_error(a, b).rotation < 1e-6


def test_pose_error_symmetry():
    rng = np.random.default_rng(6)
    a, b = random_pose(rng), random_pose(rng)
    assert abs(pose_error(a, b).rotation - pose_error(b, a).rotation) < 1e-9


def test_thresholds_default_constants():
    """The accuracy levels are constants, strict to loose, and no config key."""
    assert LEVELS == {"high": (0.25, 2.0), "mid": (0.5, 5.0), "low": (5.0, 10.0)}
    assert list(LEVELS) == ["high", "mid", "low"]
    with pytest.raises(ConfigError, match="unknown config key: thresholds"):
        config_from_dict({"thresholds": {"high": [1.0, 5.0], "mid": [0.5, 10.0], "low": [5.0, 20.0]}})


def test_localization_rate_all_perfect():
    errs = [PoseError(0.0, 0.0)] * 7
    rates = localization_rate(errs)
    assert rates == {"high": 100.0, "mid": 100.0, "low": 100.0}


def test_localization_rate_mid_only():
    rates = localization_rate([PoseError(0.3, 3.0)])
    assert rates["high"] == 0.0
    assert rates["mid"] == 100.0
    assert rates["low"] == 100.0


def test_localization_rate_counting_oracle():
    rng = np.random.default_rng(7)
    errs = [PoseError(float(t), float(r)) for t, r in rng.uniform(0, [6, 12], (10, 2))]
    errs[3] = None  # protocol failure counts as a miss everywhere
    rates = localization_rate(errs)
    for name, (mt, mr) in LEVELS.items():
        want = 100.0 * sum(
            1 for e in errs if e is not None and e.translation <= mt and e.rotation <= mr
        ) / len(errs)
        assert rates[name] == want


def test_localization_rate_monotone():
    rng = np.random.default_rng(8)
    errs = [PoseError(float(t), float(r)) for t, r in rng.uniform(0, [6, 12], (40, 2))]
    rates = localization_rate(errs)
    assert rates["high"] <= rates["mid"] <= rates["low"]


# ---------------------------------------------------------------- recall


def test_recall_top1_colocated():
    rankings = {10: [(0, 1.0)], 11: [(1, 0.9)]}
    positions = {
        10: np.zeros(3), 11: np.array([100.0, 0, 0]),
        0: np.array([1.0, 0, 0]), 1: np.array([101.0, 0, 0]),
    }
    assert recall_at_k(rankings, positions, radius=25.0, ks=[1])[1] == 1.0


def test_recall_nothing_within_radius():
    rankings = {10: [(0, 1.0), (1, 0.9)]}
    positions = {10: np.zeros(3), 0: np.array([50.0, 0, 0]), 1: np.array([80.0, 0, 0])}
    out = recall_at_k(rankings, positions, radius=25.0, ks=[1, 2])
    assert out == {1: 0.0, 2: 0.0}


def test_recall_brute_force_and_monotone():
    rng = np.random.default_rng(9)
    positions = {i: rng.uniform(0, 100, 3) for i in range(30)}
    rankings = {}
    for qid in range(20, 30):
        order = sorted(range(20), key=lambda v: rng.random())
        rankings[qid] = [(v, 1.0 - 0.01 * r) for r, v in enumerate(order)]
    ks = [1, 3, 5, 10]
    out = recall_at_k(rankings, positions, radius=25.0, ks=ks)
    for k in ks:
        hits = 0
        for qid, ranked in rankings.items():
            if any(np.linalg.norm(positions[v] - positions[qid]) <= 25.0 for v, _ in ranked[:k]):
                hits += 1
        assert out[k] == hits / 10
    assert out[1] <= out[3] <= out[5] <= out[10]
