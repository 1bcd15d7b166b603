import numpy as np
import pytest

from synthloc.errors import ConfigError, NoVisibleLandmarksError
from synthloc.worldgen import (
    CameraPose,
    RenderNoise,
    WorldConfig,
    generate_world,
    make_matching_pairs,
    project_points,
    render_view,
)
from synthloc import quats, storage

from conftest import SMALL_WORLD


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
    with pytest.raises(ConfigError, match="num_landmarks < 10"):
        generate_world(WorldConfig(num_landmarks=0), seed=1)


def test_tiny_descriptor_degenerate():
    with pytest.raises(ConfigError, match="descriptor_dim < 4"):
        generate_world(WorldConfig(descriptor_dim=2), seed=1)


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
        assert int(np.sum(v.lid >= 0)) >= WorldConfig().min_visible
    for v in default_world.query_views:
        assert int(np.sum(v.lid >= 0)) >= 4


def test_coobservation_counts_brute_force(default_world):
    """Every matching pair's count equals brute-force set intersection."""
    sets = {v.id: v.visible_landmark_set() for v in default_world.map_views}
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


def test_make_matching_pairs_toy(small_world):
    pairs5 = make_matching_pairs(small_world, min_coobs=5)
    pairs20 = make_matching_pairs(small_world, min_coobs=20)
    assert set(pairs20) <= set(pairs5)
    sets = {v.id: v.visible_landmark_set() for v in small_world.map_views}
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
        small_world, view.pose, view.intrinsics, noise, seed=99, view_id=0,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    pts = small_world.landmarks.positions[clean.lid]
    uv, z = project_points(pts, clean.pose, clean.intrinsics)
    assert np.all(z > 0)
    assert np.max(np.abs(uv - clean.kp)) < 1e-9


def test_zero_noise_descriptor_equals_base(small_world):
    view = small_world.map_views[0]
    noise = RenderNoise(keypoint_sigma=0.0, descriptor_sigma=0.0, clutter_count=0)
    clean = render_view(
        small_world, view.pose, view.intrinsics, noise, seed=99,
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
            quats.to_matrix(quats.from_axis_angle([0, 0, 1], np.pi)) @ pose.matrix()
        ),
        position=pose.position + np.array([0.0, -30.0, 0.0]),
    )
    with pytest.raises(NoVisibleLandmarksError):
        render_view(
            small_world, flipped, small_world.map_views[0].intrinsics,
            RenderNoise(0.0, 0.0, 0), seed=0, max_dist=SMALL_WORLD.visibility_radius,
        )


def test_keypoint_noise_statistics(default_world):
    """Empirical keypoint residual std within 20% of the configured sigma."""
    sigma = 0.5
    noise = RenderNoise(keypoint_sigma=sigma, descriptor_sigma=0.0, clutter_count=0)
    residuals = []
    for i, view in enumerate(default_world.map_views):
        noisy = render_view(
            default_world, view.pose, view.intrinsics, noise, seed=1000 + i,
            max_dist=WorldConfig().visibility_radius,
        )
        pts = default_world.landmarks.positions[noisy.lid]
        uv, _ = project_points(pts, view.pose, view.intrinsics)
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
        small_world, view.pose, view.intrinsics, noise, seed=5,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    R = clean.pose.matrix()
    intr = clean.intrinsics
    for kp, lid in zip(clean.kp[:25], clean.lid[:25].tolist()):
        ray_cam = np.array(
            [
                (kp[0] - intr.principal_point[0]) / intr.focal,
                (kp[1] - intr.principal_point[1]) / intr.focal,
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
        small_world, view.pose, view.intrinsics,
        RenderNoise(0.0, 0.0, clutter_count=7), seed=2,
        max_dist=SMALL_WORLD.visibility_radius,
    )
    assert np.count_nonzero(noisy.lid == -1) == 7


def test_min_coobs_validation(small_world):
    with pytest.raises(ValueError):
        make_matching_pairs(small_world, min_coobs=0)
