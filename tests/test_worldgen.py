import numpy as np
import pytest

from synthloc.errors import NoVisibleLandmarksError
from synthloc.worldgen import (
    CameraPose,
    RenderNoise,
    ViewImage,
    WorldConfig,
    generate_world,
    make_matching_pairs,
    project_points,
    render_view,
    shared_landmarks,
)
from synthloc import quats, storage, worldgen

from conftest import SMALL_WORLD, from_axis_angle, landmark_set


def test_determinism_byte_identical(tmp_path, small_world):
    again = generate_world(SMALL_WORLD, seed=3)
    storage.save_world(small_world, tmp_path / "a")
    storage.save_world(again, tmp_path / "b")
    for rel in ["landmarks.csv", "views.csv", "pairs.csv", "meta.csv"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    for f in sorted((tmp_path / "a" / "features").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / "features" / f.name).read_bytes()


def test_determinism_default_config_seed7(tmp_path, default_world):
    again = generate_world(WorldConfig(), seed=7)
    storage.save_world(default_world, tmp_path / "a")
    storage.save_world(again, tmp_path / "b")
    for p in sorted((tmp_path / "a").rglob("*.csv")):
        rel = p.relative_to(tmp_path / "a")
        assert p.read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_zero_landmarks_degenerate():
    with pytest.raises(ValueError, match="num_landmarks must be an integer >= 10, not 0"):
        WorldConfig(num_landmarks=0)


def test_tiny_descriptor_degenerate():
    with pytest.raises(ValueError, match="descriptor_dim must be an integer >= 4, not 2"):
        WorldConfig(descriptor_dim=2)


def test_landmark_invariants(small_world):
    """Row i of both read-only arrays is landmark i; the pair is not a
    sequence, so code written for a landmark list fails loudly."""
    positions, descs = small_world.landmarks.positions, small_world.landmarks.descriptors
    assert positions.shape == (SMALL_WORLD.num_landmarks, 3)
    assert descs.shape == (SMALL_WORLD.num_landmarks, SMALL_WORLD.descriptor_dim)
    assert not positions.flags.writeable and not descs.flags.writeable
    assert np.all(np.abs(np.linalg.norm(descs, axis=1) - 1.0) < 1e-9)
    with pytest.raises(TypeError):
        len(small_world.landmarks)


def test_pose_invariants(small_world):
    for v in small_world.map_views + small_world.query_views:
        assert abs(np.linalg.norm(v.pose.rotation) - 1.0) < 1e-9
        assert v.pose.rotation[0] >= 0


def test_min_visible(default_world):
    for v in default_world.map_views:
        assert int(np.sum(v.lid >= 0)) >= worldgen.MIN_VISIBLE
    for v in default_world.query_views:
        assert int(np.sum(v.lid >= 0)) >= 4


def test_coobservation_counts_brute_force(default_world):
    """Every matching pair's count equals brute-force set intersection."""
    sets = {v.id: landmark_set(v) for v in default_world.map_views}
    listed = {(a, b): c for a, b, c in default_world.matching_pairs}
    for a, b, c in default_world.matching_pairs:
        assert a < b
        assert c == len(sets[a] & sets[b])
    # completeness: no qualifying pair missing
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            n = len(sets[a] & sets[b])
            if n >= WorldConfig().min_coobs:
                assert listed[(a, b)] == n


def test_shared_landmarks_equal_pairwise_intersections(small_world):
    """Each two views that see a landmark in common are keyed in list order,
    not id order, with the size of the intersection of their landmark sets;
    a view that sees no landmark shares none, not even with itself."""
    first = small_world.map_views[0]
    blind = ViewImage(99, first.pose, first.kp, first.desc, np.full(first.lid.shape, -1))
    views = small_world.map_views[::-1]
    views.insert(5, blind)
    sets = [landmark_set(v) for v in views]
    want = {
        (views[i].id, views[j].id): len(sets[i] & sets[j])
        for i in range(len(views))
        for j in range(i + 1, len(views))
        if sets[i] & sets[j]
    }
    assert list(shared_landmarks(views).items()) == list(want.items())


def test_make_matching_pairs_toy(small_world):
    pairs5 = make_matching_pairs(small_world, min_coobs=5)
    pairs20 = make_matching_pairs(small_world, min_coobs=20)
    assert set(pairs20) <= set(pairs5)
    sets = {v.id: landmark_set(v) for v in small_world.map_views}
    expected = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            n = len(sets[a] & sets[b])
            if n >= 5:
                expected.append((a, b, n))
    assert pairs5 == expected


def test_zero_noise_exact_projection(small_world):
    view = small_world.map_views[0]
    noise = RenderNoise(keypoint_sigma=0.0, descriptor_sigma=0.0, clutter_count=0)
    clean = render_view(
        small_world, view.pose, noise, seed=99, view_id=0,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    pts = small_world.landmarks.positions[clean.lid]
    uv, z = project_points(pts, clean.pose)
    assert np.all(z > 0)
    assert np.max(np.abs(uv - clean.kp)) < 1e-9


def test_zero_noise_descriptor_equals_base(small_world):
    view = small_world.map_views[0]
    noise = RenderNoise(keypoint_sigma=0.0, descriptor_sigma=0.0, clutter_count=0)
    clean = render_view(
        small_world, view.pose, noise, seed=99,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    for lid, desc in zip(clean.lid.tolist(), clean.desc):
        base = small_world.landmarks.descriptors[lid]
        assert np.allclose(desc, base, atol=1e-12)


@pytest.mark.parametrize(
    "rotation,position",
    [([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), ([1.0, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0])],
    ids=["nan-rotation", "inf-position"],
)
def test_camera_pose_rejects_non_finite(rotation, position):
    """The unit-norm check alone is False for a NaN quaternion."""
    with pytest.raises(ValueError, match="finite"):
        CameraPose(rotation=np.array(rotation), position=np.array(position))


def test_facing_away_raises(small_world):
    # camera at the landmark band looking away from the street
    pose = small_world.map_views[0].pose
    flipped = CameraPose(
        rotation=quats.from_matrix(
            quats.to_matrix(from_axis_angle([0, 0, 1], np.pi)) @ pose.matrix()
        ),
        position=pose.position + np.array([0.0, -30.0, 0.0]),
    )
    with pytest.raises(NoVisibleLandmarksError):
        render_view(
            small_world, flipped, RenderNoise(0.0, 0.0, 0), seed=0, max_dist=SMALL_WORLD.visibility_radius,
        )


def test_keypoint_noise_statistics(default_world):
    """Empirical keypoint residual std within 20% of the configured sigma."""
    sigma = 0.5
    noise = RenderNoise(keypoint_sigma=sigma, descriptor_sigma=0.0, clutter_count=0)
    residuals = []
    for i, view in enumerate(default_world.map_views):
        noisy = render_view(
            default_world, view.pose, noise, seed=1000 + i,
            max_dist=WorldConfig().visibility_radius,
        )
        pts = default_world.landmarks.positions[noisy.lid]
        uv, _ = project_points(pts, view.pose)
        residuals.extend((noisy.kp - uv).ravel())
    residuals = np.array(residuals)
    assert residuals.size >= 1000
    assert abs(residuals.std() - sigma) < 0.2 * sigma


def test_projection_roundtrip_ray(small_world):
    """Back-projecting a zero-noise keypoint along its ray passes within
    1e-6 m of the landmark."""
    view = small_world.map_views[3]
    noise = RenderNoise(0.0, 0.0, 0)
    clean = render_view(
        small_world, view.pose, noise, seed=5,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    R = clean.pose.matrix()
    for kp, lid in zip(clean.kp[:25], clean.lid[:25].tolist()):
        ray_cam = np.array(
            [
                (kp[0] - worldgen.PRINCIPAL_POINT[0]) / worldgen.FOCAL,
                (kp[1] - worldgen.PRINCIPAL_POINT[1]) / worldgen.FOCAL,
                1.0,
            ]
        )
        ray_world = R.T @ ray_cam
        ray_world /= np.linalg.norm(ray_world)
        target = small_world.landmarks.positions[lid] - clean.pose.position
        dist_along = float(np.dot(target, ray_world))
        closest = clean.pose.position + dist_along * ray_world
        assert np.linalg.norm(closest - small_world.landmarks.positions[lid]) < 1e-6


def test_clutter_has_no_landmark_id(small_world):
    view = small_world.map_views[0]
    noisy = render_view(
        small_world, view.pose,
        RenderNoise(0.0, 0.0, clutter_count=7), seed=2,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    assert np.count_nonzero(noisy.lid == -1) == 7


def test_min_coobs_validation(small_world):
    with pytest.raises(ValueError):
        make_matching_pairs(small_world, min_coobs=0)


# ---------------------------------------------------------------- shared kernels


@pytest.mark.parametrize("d", [1, 2, 3, 16, 130])
def test_row_norms_equal_the_norm_of_each_row(d):
    """`row_norms` is the 1-D `np.linalg.norm` of each row, bit for bit, at
    any width and magnitude, a zero row included."""
    rng = np.random.default_rng(d)
    scale = rng.choice([1e-150, 1e-3, 1.0, 1e3, 1e150], size=(60, 1))
    x = rng.standard_normal((60, d)) * scale
    x[7] = 0.0
    got = worldgen.row_norms(x)
    want = np.array([[np.linalg.norm(row)] for row in x])
    assert got.shape == (60, 1)
    assert got.tobytes() == want.tobytes()
    unit = np.array([row / np.linalg.norm(row) for row in x[8:]])
    assert worldgen.unit_rows(x[8:]).tobytes() == unit.tobytes()


def test_the_principal_point_is_read_only():
    """Every render, projection and PnP solve reads the one principal point,
    so no write may move it."""
    with pytest.raises(ValueError, match="read-only"):
        worldgen.PRINCIPAL_POINT[0] = 0.0
    assert worldgen.PRINCIPAL_POINT.tolist() == [320.0, 240.0]


def ref_project_points(points, pose):
    """The pinhole projection under one pose, written out."""
    R = pose.matrix()
    cam = (points - pose.position) @ R.T
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = worldgen.FOCAL * cam[:, 0] / z + worldgen.PRINCIPAL_POINT[0]
        v = worldgen.FOCAL * cam[:, 1] / z + worldgen.PRINCIPAL_POINT[1]
    return np.stack([u, v], axis=1), z


def test_projection_over_stacked_poses_equals_each_pose_alone():
    """`project` over b stacked poses gives each pose the bits of
    `project_points` under that pose alone, which are those of the projection
    written out; points behind a camera included."""
    rng = np.random.default_rng(5)
    points = rng.uniform(-20.0, 20.0, (80, 3))
    poses = [
        CameraPose(from_axis_angle(rng.standard_normal(3), rng.uniform(-3.0, 3.0)), rng.uniform(-5, 5, 3))
        for _ in range(7)
    ]
    R = np.stack([pose.matrix() for pose in poses])
    centers = np.stack([pose.position for pose in poses])
    u, v, z = worldgen.project(points, R, centers)
    assert u.shape == v.shape == z.shape == (7, 80)
    assert (z < 0).any() and (z > 0).any()
    for i, pose in enumerate(poses):
        uv, depth = project_points(points, pose)
        assert np.stack([u[i], v[i]], axis=1).tobytes() == uv.tobytes()
        assert z[i].tobytes() == depth.tobytes()
        ref_uv, ref_z = ref_project_points(points, pose)
        assert uv.tobytes() == ref_uv.tobytes() and depth.tobytes() == ref_z.tobytes()
