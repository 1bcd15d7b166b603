"""The array-at-a-time world renderer against reference copies of its
earlier per-row form: `render_view`, the landmark descriptors of
`generate_world` and `fill_clutter` must give the same arrays, bit for bit,
and leave their generators in the same state."""

import numpy as np
import pytest

from synthloc import worldgen
from synthloc.worldgen import (
    CameraPose,
    Landmarks,
    RenderNoise,
    World,
    WorldConfig,
    derive_seed,
    fill_clutter,
    generate_world,
    project_points,
    render_view,
)

# ---------------------------------------------------------------- reference


def ref_generator(seed):
    """What np.random.default_rng(seed) makes, without calling it, so that
    the `made` fixture sees only the generators the code under test makes."""
    return np.random.Generator(np.random.PCG64(seed))


def ref_fill_clutter(rng, kp, desc, first):
    for row in range(first, kp.shape[0]):
        kp[row] = rng.uniform(0.0, worldgen.IMAGE_SIZE)
        x = rng.standard_normal(desc.shape[1])
        desc[row] = x / np.linalg.norm(x)


def ref_render_view(world, pose, noise, seed, max_dist):
    """One visible row at a time: 2 keypoint normals, then d descriptor
    normals, then the clutter rows. The visible landmarks are projected
    twice, once for the mask and once for their keypoints. Returns the
    arrays and the generator."""
    rng = ref_generator(seed)
    points = world.landmarks.positions
    uv, z = project_points(points, pose)
    w, h = worldgen.IMAGE_SIZE
    dist = np.linalg.norm(points - pose.position, axis=1)
    ok = (z > worldgen.NEAR_PLANE) & (dist <= max_dist)
    ok &= (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
    idx = np.nonzero(ok)[0]
    uv, _ = project_points(points[idx], pose)
    d = world.landmarks.descriptors.shape[1]
    n = idx.size + noise.clutter_count
    kp = np.empty((n, 2))
    desc = np.empty((n, d))
    lid = np.full(n, -1)
    lid[: idx.size] = idx
    for row, lm_i in enumerate(idx):
        kp[row] = uv[row] + noise.keypoint_sigma * rng.standard_normal(2)
        x = world.landmarks.descriptors[lm_i] + noise.descriptor_sigma * rng.standard_normal(d)
        desc[row] = x / np.linalg.norm(x)
    ref_fill_clutter(rng, kp, desc, idx.size)
    return (kp, desc, lid), rng


def ref_landmarks(config, seed):
    """`generate_world`'s landmarks, one descriptor draw per landmark."""
    rng = ref_generator(derive_seed(seed, 0))
    margin = 0.05 * config.street_length
    s_lm = rng.uniform(-margin, config.street_length + margin, config.num_landmarks)
    pos2, left = worldgen._street_frame(config, np.clip(s_lm, 0.0, config.street_length))
    lateral = rng.uniform(worldgen.LATERAL_MIN, worldgen.LATERAL_MAX, config.num_landmarks)
    along = s_lm - np.clip(s_lm, 0.0, config.street_length)
    tangent = np.stack([left[:, 1], -left[:, 0]], axis=1)
    xy = pos2 + lateral[:, None] * left + along[:, None] * tangent
    z = rng.uniform(0.0, worldgen.HEIGHT_MAX, config.num_landmarks)
    positions, descs = [], []
    for i in range(config.num_landmarks):
        desc = rng.standard_normal(config.descriptor_dim)
        descs.append(desc / np.linalg.norm(desc))
        positions.append(np.array([xy[i, 0], xy[i, 1], z[i]]))
    return (np.array(positions), np.array(descs)), rng


def array_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.fixture
def made(monkeypatch):
    """Every generator np.random.default_rng makes during the test, in order."""
    generators = []
    real = np.random.default_rng

    def default_rng(seed=None):
        generators.append(real(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return generators


# ---------------------------------------------------------------- worlds


def _config(d, clutter, noise=None):
    return WorldConfig(
        num_landmarks=150,
        descriptor_dim=d,
        num_map_views=6,
        num_query_views=3,
        street_length=60.0,
        noise=noise or RenderNoise(clutter_count=clutter),
    )


WORLDS = {
    "d32-clutter5": _config(32, 5),
    "d4-clutter0": _config(4, 0),
    "d32-clutter7": _config(32, 7),
    "d4-clutter7": _config(4, 7),
    "zero-noise": _config(16, 7, noise=RenderNoise(0.0, 0.0, 7)),
}


@pytest.mark.parametrize("seed", [7, 11, 3])
@pytest.mark.parametrize("config", list(WORLDS.values()), ids=list(WORLDS))
def test_generate_world_equals_reference(made, config, seed):
    world = generate_world(config, seed)
    (positions, descs), rng = ref_landmarks(config, seed)
    got = (world.landmarks.positions, world.landmarks.descriptors)
    assert array_bytes(got) == array_bytes((positions, descs))
    assert made[0].bit_generator.state == rng.bit_generator.state

    # every view of the world, rendered again per row from its own pose, and
    # by `render_view` again, which leaves its generator where the rows do
    for view, view_seed in _view_seeds(world, seed):
        want, rng = ref_render_view(world, view.pose, config.noise, view_seed, config.visibility_radius)
        assert array_bytes((view.kp, view.desc, view.lid)) == array_bytes(want)
        render_view(world, view.pose, config.noise, view_seed, config.visibility_radius)
        assert made[-1].bit_generator.state == rng.bit_generator.state


def _view_seeds(world, seed):
    """Each view of `world` with the seed `generate_world` rendered it with."""
    return [(v, derive_seed(seed, 2, i)) for i, v in enumerate(world.map_views)] + [
        (v, derive_seed(seed, 4, i)) for i, v in enumerate(world.query_views)
    ]


NOISES = {
    "default": RenderNoise(),
    "zero-noise": RenderNoise(0.0, 0.0, 5),
    "clutter0": RenderNoise(0.5, 0.2, 0),
    "clutter7": RenderNoise(2.0, 0.6, 7),
}


@pytest.mark.parametrize("noise", list(NOISES.values()), ids=list(NOISES))
def test_render_view_equals_reference(made, small_world, noise):
    for i, view in enumerate(small_world.map_views[:5] + small_world.query_views[:2]):
        for seed in (0, 1000 + i, derive_seed(9, i)):
            got = render_view(small_world, view.pose, noise, seed, max_dist=30.0)
            want, rng = ref_render_view(small_world, view.pose, noise, seed, 30.0)
            assert array_bytes((got.kp, got.desc, got.lid)) == array_bytes(want)
            assert made[-1].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("clutter", [0, 7])
def test_render_view_of_one_landmark_equals_reference(made, clutter):
    """A camera at the origin looking along +z sees one of three landmarks:
    the second is behind it and the third projects far right of the image."""
    rng = np.random.default_rng(5)
    landmarks = Landmarks(
        np.array([[0.5, -0.2, 5.0], [0.0, 0.0, -5.0], [400.0, 0.0, 1.0]]),
        [d / np.linalg.norm(d) for d in rng.standard_normal((3, 4))],
    )
    world = World(landmarks, [], [], [], seed=0)
    pose = CameraPose(rotation=np.array([1.0, 0.0, 0.0, 0.0]), position=np.zeros(3))
    noise = RenderNoise(0.3, 0.05, clutter)
    for seed in range(5):
        got = render_view(world, pose, noise, seed, max_dist=np.inf)
        want, gen = ref_render_view(world, pose, noise, seed, np.inf)
        assert got.lid.tolist() == [0] + [-1] * clutter
        assert array_bytes((got.kp, got.desc, got.lid)) == array_bytes(want)
        assert made[-1].bit_generator.state == gen.bit_generator.state


# ---------------------------------------------------------------- clutter


@pytest.mark.parametrize("d", [4, 32])
def test_fill_clutter_equals_reference(d):
    for seed in range(40):
        n = 3 + seed % 9
        first = seed % 4
        start = np.random.default_rng(1000 + seed)
        kp, desc = start.standard_normal((n, 2)), start.standard_normal((n, d))
        want_kp, want_desc = kp.copy(), desc.copy()
        rng, ref_rng = ref_generator(seed), ref_generator(seed)
        fill_clutter(rng, kp, desc, first)
        ref_fill_clutter(ref_rng, want_kp, want_desc, first)
        assert array_bytes((kp, desc)) == array_bytes((want_kp, want_desc))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_fill_clutter_no_rows_draws_nothing():
    rng = ref_generator(3)
    kp, desc = np.zeros((4, 2)), np.zeros((4, 8))
    fill_clutter(rng, kp, desc, 4)
    assert rng.bit_generator.state == ref_generator(3).bit_generator.state
    assert not kp.any() and not desc.any()
