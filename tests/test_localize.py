import numpy as np
import pytest

from synthloc import localize, quats
from synthloc.embed import EmbeddingModel, init_model
from synthloc.errors import ConfigError, InsufficientCorrespondencesError, NoConsensusError
from synthloc.experiment import ExperimentConfig, config_from_dict
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
from synthloc.worldgen import CameraIntrinsics, CameraPose, derive_seed, project_points

from conftest import from_axis_angle, landmark_set

INTR = CameraIntrinsics(400.0, np.array([320.0, 240.0]), (640, 480))


def random_pose(rng, angle_max=0.5):
    axis = rng.standard_normal(3)
    return CameraPose(
        rotation=from_axis_angle(axis, rng.uniform(0.0, angle_max)),
        position=rng.uniform(-2.0, 2.0, 3),
    )


def synth_correspondences(rng, pose, n, depth=(5.0, 15.0)):
    R = pose.matrix()
    cam = np.column_stack(
        [rng.uniform(-3, 3, n), rng.uniform(-2, 2, n), rng.uniform(*depth, n)]
    )
    pts = cam @ R + pose.position
    uv, z = project_points(pts, pose, INTR)
    assert np.all(z > 0)
    return [(uv[i], pts[i]) for i in range(n)]


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
    est, inliers = pnp_ransac(corr, INTR, RansacParams(seed=0))
    err = pose_error(est, pose)
    assert err.translation < 1e-6
    assert err.rotation < 1e-5
    assert inliers == list(range(20))


def test_pnp_insufficient():
    rng = np.random.default_rng(2)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 5)
    with pytest.raises(InsufficientCorrespondencesError):
        pnp_ransac(corr, INTR, RansacParams())


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
    corr = corr + [(bad_uv[i], bad_pts[i]) for i in range(20)]
    est, inliers = pnp_ransac(corr, INTR, RansacParams(inlier_px=2.0, seed=7))
    assert pose_error(est, pose).translation < 1e-3
    assert inliers == list(range(20))


def test_pnp_no_consensus():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, (12, 3)) + np.array([0, 0, 10.0])
    uv = rng.uniform([0, 0], [640, 480], (12, 2))
    corr = [(uv[i], pts[i]) for i in range(12)]
    with pytest.raises(NoConsensusError):
        pnp_ransac(corr, INTR, RansacParams(inlier_px=0.5, min_inliers=8, iterations=200, seed=0))


def test_pnp_seed_invariant_on_clean_input():
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    corr = synth_correspondences(rng, pose, 30)
    for seed in (0, 1, 42, 1234):
        est, _ = pnp_ransac(corr, INTR, RansacParams(seed=seed))
        assert pose_error(est, pose).translation < 1e-6


def test_pnp_recovers_render_pose_from_view_features(small_world):
    """Projection and pose estimation agree on the camera convention: a
    zero-noise rendered view's own (keypoint, landmark) pairs recover the
    render pose to numerical precision."""
    from synthloc.worldgen import RenderNoise, render_view

    view = small_world.map_views[5]
    clean = render_view(
        small_world, view.pose, view.intrinsics, RenderNoise(0.0, 0.0, 0), seed=0,
        max_dist=30.0,
    )
    corr = [
        (kp, small_world.landmarks.positions[lid])
        for kp, lid in zip(clean.kp, clean.lid.tolist())
    ]
    est, inliers = pnp_ransac(corr, clean.intrinsics, RansacParams(seed=0))
    err = pose_error(est, view.pose)
    assert err.translation < 1e-6
    assert err.rotation < 1e-5
    assert len(inliers) == len(corr)


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


# ---------------------------------------------------------------- pnp oracle
#
# pnp_ransac solves its hypotheses in stacked chunks. The reference below
# draws, solves and scores them one at a time, as a plain RANSAC loop does;
# both must pick the same hypothesis and return the same bytes.


def dlt_oracle(points3d, norm_xy):
    n = points3d.shape[0]
    centroid = points3d.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(points3d - centroid, axis=1)))
    scale = np.sqrt(3.0) / spread if spread > 0 else 1.0
    Xh = np.hstack([(points3d - centroid) * scale, np.ones((n, 1))])
    A = np.zeros((2 * n, 12))
    A[0::2, 0:4] = Xh
    A[0::2, 8:12] = -norm_xy[:, 0:1] * Xh
    A[1::2, 4:8] = Xh
    A[1::2, 8:12] = -norm_xy[:, 1:2] * Xh
    _, _, vt = np.linalg.svd(A, full_matrices=False)
    P = vt[-1].reshape(3, 4)
    T = np.eye(4)
    T[:3, :3] *= scale
    T[:3, 3] = -scale * centroid
    P = P @ T
    M = P[:, :3]
    if np.linalg.det(M) < 0:
        P = -P
        M = -M
    U, s, Vt = np.linalg.svd(M)
    R = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
    t = P[:, 3] / float(np.mean(s))
    return R, -R.T @ t


def residuals_oracle(R, center, points3d, pixels, intr):
    cam = (points3d - center) @ R.T
    z = cam[:, 2]
    res = np.full(points3d.shape[0], np.inf)
    front = z > 0.1
    if np.any(front):
        u = intr.focal * cam[front, 0] / z[front] + intr.principal_point[0]
        v = intr.focal * cam[front, 1] / z[front] + intr.principal_point[1]
        res[front] = np.hypot(u - pixels[front, 0], v - pixels[front, 1])
    return res


def pnp_oracle(corr, intr, params):
    n = len(corr)
    if n < 6:
        raise InsufficientCorrespondencesError("insufficient correspondences")
    pixels = np.array([c[0] for c in corr], dtype=float)
    points = np.array([c[1] for c in corr], dtype=float)
    norm_xy = (pixels - intr.principal_point) / intr.focal
    rng = np.random.default_rng(params.seed)
    best_count, best_mask = 0, None
    needed = params.iterations
    it = 0
    while it < min(needed, params.iterations):
        it += 1
        sample = rng.choice(n, size=6, replace=False)
        try:
            R, center = dlt_oracle(points[sample], norm_xy[sample])
        except np.linalg.LinAlgError:
            continue
        mask = residuals_oracle(R, center, points, pixels, intr) <= params.inlier_px
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask = count, mask
            w = count / n
            if w >= 1.0:
                break
            denom = np.log(max(1.0 - w**6, 1e-12))
            needed = min(
                params.iterations, int(np.ceil(np.log(max(1.0 - params.confidence, 1e-12)) / denom))
            )
    if best_mask is None or best_count < max(params.min_inliers, 6):
        raise NoConsensusError("no consensus")
    idx = np.nonzero(best_mask)[0]
    R, center = dlt_oracle(points[idx], norm_xy[idx])
    pose = CameraPose(rotation=quats.from_matrix(R), position=center)
    res = residuals_oracle(pose.matrix(), pose.position, points, pixels, intr)
    final = np.nonzero(res <= params.inlier_px)[0]
    if final.size < max(params.min_inliers, 6):
        raise NoConsensusError("no consensus")
    return pose, [int(i) for i in final]


def outcome(solver, corr, params, intr=INTR):
    try:
        pose, inliers = solver(corr, intr, params)
    except (InsufficientCorrespondencesError, NoConsensusError) as exc:
        return type(exc)
    return pose.rotation.tobytes(), pose.position.tobytes(), inliers


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
        yield trial, corr, corr + [(bad_uv[i], bad_pts[i]) for i in range(20)]


def test_pnp_matches_oracle_on_criterion_6_instances():
    for trial, clean, noisy in criterion_6_instances(20):
        for corr, params in (
            (clean, RansacParams(seed=trial)),
            (noisy, RansacParams(inlier_px=2.0, seed=trial)),
        ):
            assert outcome(pnp_ransac, corr, params) == outcome(pnp_oracle, corr, params)


def test_pnp_matches_oracle_on_no_consensus():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, (12, 3)) + np.array([0, 0, 10.0])
    uv = rng.uniform([0, 0], [640, 480], (12, 2))
    corr = [(uv[i], pts[i]) for i in range(12)]
    params = RansacParams(inlier_px=0.5, min_inliers=8, iterations=200, seed=0)
    assert outcome(pnp_ransac, corr, params) == outcome(pnp_oracle, corr, params) == NoConsensusError


@pytest.mark.parametrize("iterations", [1, 7, 33, 65])
def test_pnp_matches_oracle_on_odd_budgets(iterations):
    """Budgets that are not a multiple of the chunk size end mid-chunk."""
    for trial, _clean, noisy in criterion_6_instances(5):
        params = RansacParams(iterations=iterations, inlier_px=2.0, seed=trial)
        assert outcome(pnp_ransac, noisy, params) == outcome(pnp_oracle, noisy, params)


@pytest.mark.parametrize("min_inliers", [7, 8, 12])
def test_pnp_below_min_inliers_solves_nothing(monkeypatch, min_inliers):
    """With one correspondence fewer than min_inliers no mask can reach
    min_inliers, so the solve fails as the oracle's full loop does, without
    solving a hypothesis; with exactly min_inliers it runs as before."""
    calls = []
    masks = localize._hypothesis_masks

    def spy(*args):
        calls.append(len(args[0]))
        return masks(*args)

    monkeypatch.setattr(localize, "_hypothesis_masks", spy)
    for trial, clean, _noisy in criterion_6_instances(3):
        for corr in (clean, jittered(clean, trial, sigma=1.0)):
            params = RansacParams(iterations=200, seed=trial, min_inliers=min_inliers)
            calls.clear()
            hopeless = outcome(pnp_ransac, corr[: min_inliers - 1], params)
            assert hopeless == outcome(pnp_oracle, corr[: min_inliers - 1], params)
            assert hopeless == NoConsensusError and calls == []
            exact = outcome(pnp_ransac, corr[:min_inliers], params)
            assert exact == outcome(pnp_oracle, corr[:min_inliers], params)
            assert calls
        assert outcome(pnp_ransac, clean[:min_inliers], params)[2] == list(range(min_inliers))


def jittered(corr, seed, sigma=0.05):
    rng = np.random.default_rng(seed)
    return [(uv + rng.normal(0.0, sigma, 2), xyz) for uv, xyz in corr]


# Pixel noise spreads the inlier counts, and a low confidence stops the loop
# after a few hypotheses: later draws of the same chunk, which may count more
# inliers, must then be discarded.
STOPS_EARLY = dict(inlier_px=1.0, min_inliers=6, confidence=0.5)


def test_pnp_matches_oracle_when_stopping_mid_chunk():
    for trial, clean, _noisy in criterion_6_instances(10):
        corr = jittered(clean, trial)
        params = RansacParams(seed=trial, **STOPS_EARLY)
        assert outcome(pnp_ransac, corr, params) == outcome(pnp_oracle, corr, params)


def test_pnp_matches_oracle_when_svd_fails(monkeypatch):
    """A NaN pixel makes every sample that draws it fail in the SVD. The
    stacked chunk then fails as a whole and is redone one at a time; the
    failing hypotheses count as iterations but never win."""
    stacks = []
    dlt = localize._dlt_rt

    def spy(points3d, norm_xy):
        stacks.append(points3d.shape[0])
        return dlt(points3d, norm_xy)

    monkeypatch.setattr(localize, "_dlt_rt", spy)
    nan = (np.array([np.nan, 240.0]), np.array([0.0, 0.0, 10.0]))
    for trial, clean, _noisy in criterion_6_instances(10):
        for corr, params in (
            (clean + [nan], RansacParams(seed=trial)),
            (jittered(clean, trial) + [nan], RansacParams(seed=trial, **STOPS_EARLY)),
        ):
            stacks.clear()
            assert outcome(pnp_ransac, corr, params) == outcome(pnp_oracle, corr, params)
            assert stacks[0] > 1 and stacks[1] == 1  # the first chunk fell back
        assert outcome(pnp_ransac, clean + [nan], RansacParams(seed=trial))[2] == list(range(20))


def assert_draw_is_choice(serial, chunked, n, b):
    expected = np.array([serial.choice(n, size=6, replace=False) for _ in range(b)])
    got = localize._draw_samples(chunked, n, b)
    assert got.dtype == expected.dtype and np.array_equal(got, expected), (n, b)
    assert chunked.bit_generator.state == serial.bit_generator.state, (n, b)


def test_draw_samples_equals_serial_choice():
    """One chunk's draw gives the samples and the generator state of b
    stacked `rng.choice(n, 6, replace=False)` calls: chunk after chunk from
    one generator, as pnp_ransac draws them, and from fresh generators. If a
    numpy release changes `choice`, this test names the cause before the
    pinned digests fail."""
    for n in [*range(6, 131), 9_999, 10_000, 10_001, 20_000]:
        serial, chunked = np.random.default_rng(n), np.random.default_rng(n)
        for b in range(1, localize._CHUNK + 1):
            assert_draw_is_choice(serial, chunked, n, b)
    for n in (6, 7, 40, 130, 20_000):
        for b in range(1, localize._CHUNK + 1):
            assert_draw_is_choice(np.random.default_rng([n, b]), np.random.default_rng([n, b]), n, b)


class Recorded(Exception):
    """Raised in place of a solve once its inputs are recorded."""


def test_pnp_matches_oracle_on_recorded_sfm_solves(monkeypatch, default_world):
    """Real solves: the correspondences sfm_localize hands to pnp_ransac for
    the default world's 20 clean and 20 `at dawn` queries at k = 1 and 5,
    after cosine top-5 retrieval, with the benchmark's RANSAC seeds for seed
    7. Among them are solves that run to the 1000-iteration cap and end
    without consensus."""
    d = default_world.landmarks.descriptors.shape[1]
    queries = shift_queries(default_world, default_prompt_set(d, seed=0), ["at dawn"], seed=7)
    model = EmbeddingModel(np.eye(d))
    index = build_index(default_world.map_views, model)
    map_views = {v.id: v for v in default_world.map_views}
    solves = []

    def record(corr, intr, params):
        solves.append((corr, intr, params))
        raise Recorded

    monkeypatch.setattr(localize, "pnp_ransac", record)
    for q in queries:
        ranked = retrieve(q, index, model, "global_cosine", k=5)
        for k in (1, 5):
            with pytest.raises(Recorded):
                sfm_localize(
                    q, ranked, map_views, default_world.landmarks, model, k, MatchParams(),
                    RansacParams(seed=derive_seed(7, q.id)),
                )
    monkeypatch.undo()

    hypotheses = []
    masks = localize._hypothesis_masks

    def spy(*args):
        hypotheses[-1] += len(args[0])
        return masks(*args)

    monkeypatch.setattr(localize, "_hypothesis_masks", spy)
    outcomes = []
    for corr, intr, params in solves:
        hypotheses.append(0)
        outcomes.append(outcome(pnp_ransac, corr, params, intr))
        assert outcomes[-1] == outcome(pnp_oracle, corr, params, intr)
    assert len(solves) == 80
    assert NoConsensusError in outcomes and 1000 in hypotheses


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


THRESHOLDS = ExperimentConfig().thresholds


def test_thresholds_default_constants():
    assert LEVELS == ("high", "mid", "low")
    assert THRESHOLDS == {"high": [0.25, 2.0], "mid": [0.5, 5.0], "low": [5.0, 10.0]}
    with pytest.raises(ConfigError, match="strictly increasing"):
        config_from_dict({"thresholds": {"high": [1.0, 5.0], "mid": [0.5, 10.0], "low": [5.0, 20.0]}})


def test_localization_rate_all_perfect():
    errs = [PoseError(0.0, 0.0)] * 7
    rates = localization_rate(errs, THRESHOLDS)
    assert rates == {"high": 100.0, "mid": 100.0, "low": 100.0}


def test_localization_rate_mid_only():
    rates = localization_rate([PoseError(0.3, 3.0)], THRESHOLDS)
    assert rates["high"] == 0.0
    assert rates["mid"] == 100.0
    assert rates["low"] == 100.0


def test_localization_rate_counting_oracle():
    rng = np.random.default_rng(7)
    errs = [PoseError(float(t), float(r)) for t, r in rng.uniform(0, [6, 12], (10, 2))]
    errs[3] = None  # protocol failure counts as a miss everywhere
    rates = localization_rate(errs, THRESHOLDS)
    for name in LEVELS:
        mt, mr = THRESHOLDS[name]
        want = 100.0 * sum(
            1 for e in errs if e is not None and e.translation <= mt and e.rotation <= mr
        ) / len(errs)
        assert rates[name] == want


def test_localization_rate_monotone():
    rng = np.random.default_rng(8)
    errs = [PoseError(float(t), float(r)) for t, r in rng.uniform(0, [6, 12], (40, 2))]
    rates = localization_rate(errs, THRESHOLDS)
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
