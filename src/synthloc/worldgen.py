"""Deterministic synthetic 3D world: landmarks along a street, pinhole views,
local features with ground-truth landmark ids, and co-observation pairs.

Conventions: world up is +z. A camera pose stores the camera center C in the
world frame and a unit quaternion (w,x,y,z) for the world-to-camera rotation,
i.e. x_cam = R (X - C). Image axes follow the usual u-right / v-down layout,
so the camera's +z axis is the viewing direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quats
from .errors import ConfigError, NoVisibleLandmarksError, require_integer, require_number


@dataclass(frozen=True)
class Landmarks:
    """A world's L landmarks as two read-only row-aligned arrays: row i of
    `positions` (L, 3, meters) and of `descriptors` (L, d, unit norm) is
    landmark i, whose id is i."""

    positions: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self) -> None:
        for name in ("positions", "descriptors"):
            rows = np.asarray(getattr(self, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)


@dataclass
class CameraPose:
    rotation: np.ndarray  # unit quaternion (w,x,y,z), world-to-camera
    position: np.ndarray  # (3,) camera center in world frame

    def __post_init__(self) -> None:
        q = np.asarray(self.rotation, dtype=float)
        self.position = np.asarray(self.position, dtype=float)
        if not (np.isfinite(q).all() and np.isfinite(self.position).all()):
            raise ValueError("rotation and position must be finite")
        if abs(np.linalg.norm(q) - 1.0) > 1e-9:
            raise ValueError("rotation quaternion must have unit norm")
        # canonical sign only; renormalizing here would silently move the
        # stored value away from what serialization round-trips
        self.rotation = quats.canonical_sign(q)

    def matrix(self) -> np.ndarray:
        return quats.to_matrix(self.rotation)


@dataclass
class ViewImage:
    """One image as three row-aligned arrays over its n >= 1 features:
    `kp` (n, 2) float pixel keypoints, `desc` (n, d) float descriptors and
    `lid` (n,) int landmark ids, -1 for clutter. Every view is seen by the
    one camera of `FOCAL`, `IMAGE_SIZE` and `PRINCIPAL_POINT`.

    Views are immutable once built: the arrays are made read-only, and
    producers (rendering, variants, the CSV reader) write them once, so a
    changed view is a new view."""

    id: int
    pose: CameraPose
    kp: np.ndarray
    desc: np.ndarray
    lid: np.ndarray
    condition: str = "original"

    def __post_init__(self) -> None:
        self.kp = np.asarray(self.kp, dtype=float)
        self.desc = np.asarray(self.desc, dtype=float)
        self.lid = np.asarray(self.lid, dtype=int)
        n = self.lid.shape[0] if self.lid.ndim == 1 else -1
        if n == 0:
            raise ValueError("view has no features")
        d = self.desc.shape[1] if self.desc.ndim == 2 and self.desc.shape[0] == n else 0
        if n < 0 or self.kp.shape != (n, 2) or d == 0:
            raise ValueError(
                f"keypoints {self.kp.shape}, descriptors {self.desc.shape} and landmark ids "
                f"{self.lid.shape} must be (n, 2), (n, d) and (n,) with n, d >= 1"
            )
        for a in (self.kp, self.desc, self.lid):
            a.flags.writeable = False

    def descriptors(self) -> np.ndarray:
        """`desc`, under the name the benchmark's `bench/workloads.py:193`
        reads; synthloc itself reads `desc`."""
        return self.desc


@dataclass
class RenderNoise:
    keypoint_sigma: float = 0.3  # px
    descriptor_sigma: float = 0.05
    clutter_count: int = 5

    def __post_init__(self) -> None:
        require_number("keypoint_sigma", self.keypoint_sigma, 0)
        require_number("descriptor_sigma", self.descriptor_sigma, 0)
        require_integer("clutter_count", self.clutter_count, 0)


# The street's shape and the camera placement are the same in every world:
# only the scene's appearance varies between a map and its queries.
BEND_ANGLE_DEG = 25.0
LATERAL_MIN, LATERAL_MAX = 6.0, 14.0  # landmark distance from the street, m
HEIGHT_MAX = 8.0  # m
CAMERA_HEIGHT = 1.6  # m
# the one pinhole camera: every view is rendered, projected and solved with it
FOCAL = 400.0  # px
IMAGE_SIZE = (640, 480)  # px, width and height
PRINCIPAL_POINT = np.array(IMAGE_SIZE) / 2.0  # px, the image centre
PRINCIPAL_POINT.flags.writeable = False
MIN_VISIBLE = 8  # landmarks each map view must see
HEADING_JITTER_DEG = 2.0
QUERY_TRANSLATION_SIGMA = 0.7  # m
QUERY_ROTATION_SIGMA_DEG = 2.0


@dataclass
class WorldConfig:
    num_landmarks: int = 500
    descriptor_dim: int = 32
    num_map_views: int = 40
    num_query_views: int = 20
    street_length: float = 100.0
    visibility_radius: float = 30.0
    min_coobs: int = 10
    noise: RenderNoise = field(default_factory=RenderNoise)

    def __post_init__(self) -> None:
        for name, low in (
            ("num_landmarks", 10), ("descriptor_dim", 4), ("num_map_views", 2), ("num_query_views", 0),
            ("min_coobs", 1),
        ):
            require_integer(name, getattr(self, name), low)
        for name in ("street_length", "visibility_radius"):
            require_number(name, getattr(self, name), 0, strict=True)


@dataclass
class World:
    landmarks: Landmarks
    map_views: list[ViewImage]
    query_views: list[ViewImage]
    matching_pairs: list[tuple[int, int, int]]  # (view_id, view_id, co-observations), i < j
    seed: int


NEAR_PLANE = 0.1


def derive_seed(*parts: int) -> int:
    """Stable child seed for parallel-safe per-view RNG streams."""
    ss = np.random.SeedSequence(list(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def project(points: np.ndarray, R: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection by the one camera (`FOCAL`, `PRINCIPAL_POINT`) of
    the (n, 3) `points` under each of b poses, given as (b, 3, 3)
    world-to-camera rotations and (b, 3) centers: the (b, n) pixel
    coordinates u and v and depths z; callers mask by depth. Each pose
    gets the operations of a projection of its own. `project_points` calls
    it for one pose and `localize._residuals` for a stack of RANSAC poses."""
    cam = (points - centers[:, None]) @ R.transpose(0, 2, 1)
    z = cam[:, :, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = FOCAL * cam[:, :, 0] / z + PRINCIPAL_POINT[0]
        v = FOCAL * cam[:, :, 1] / z + PRINCIPAL_POINT[1]
    return u, v, z


def project_points(points: np.ndarray, pose: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection under one pose. Returns (uv array, depth array)."""
    u, v, z = project(np.atleast_2d(points), pose.matrix()[None], pose.position[None])
    return np.stack([u[0], v[0]], axis=1), z[0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """The (m, 1) lengths of the rows of the (m, d) array `x`, one dot
    product per row. The stacked row dot products round like the 1-D
    `np.linalg.norm` of each row (`sqrt(x.dot(x))`), bit for bit; a
    reduction over axis 1 can differ in the last bit."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of the (m, d) array `x`, each divided by its length."""
    return x / row_norms(x)


def sq_distances(a: np.ndarray, sa: np.ndarray, b: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """The (m, n) squared distances between the rows of `a` (m, d) and `b`
    (n, d), given their squared norms `sa` and `sb`, by one matrix product;
    rounding can leave an entry slightly below 0."""
    return sa[:, None] + sb[None, :] - 2.0 * (a @ b.T)


def fill_clutter(rng: np.random.Generator, kp: np.ndarray, desc: np.ndarray, first: int) -> None:
    """Fill rows `first`.. of `kp` and `desc` with clutter, one row at a time:
    a uniform keypoint in the `IMAGE_SIZE` image, then a random unit descriptor.

    The rows cannot share one draw: each standard normal is a ziggurat draw
    that takes a variable number of raw 64-bit values, so the uniforms and
    normals of later rows sit at stream offsets known only after the earlier
    draws. `rng.random(2) * high` is what `rng.uniform(0.0, IMAGE_SIZE)`
    computes (`0.0 + high * U`), and `x / sqrt(x.dot(x))` is the 1-D
    `np.linalg.norm` normalisation, both without numpy's per-call overhead."""
    high = np.array(IMAGE_SIZE, dtype=float)
    for row in range(first, kp.shape[0]):
        kp[row] = rng.random(2) * high
        x = rng.standard_normal(desc.shape[1])
        desc[row] = x / math.sqrt(x.dot(x))


def render_view(
    world: World,
    pose: CameraPose,
    noise: RenderNoise,
    seed: int,
    max_dist: float,
    view_id: int = -1,
) -> ViewImage:
    """Render the landmarks the one camera sees from `pose`, up to `max_dist`
    away and inside the `IMAGE_SIZE` image, into a feature set.

    Keypoints are exact pinhole projections plus Gaussian pixel noise;
    descriptors are renormalized noisy copies of the landmark descriptors.
    `clutter_count` extra features carry random unit descriptors and no
    landmark id. Raises NoVisibleLandmarksError when the frustum is empty.
    Each landmark is projected once, for its visibility and its keypoint.

    The visible rows are rendered array-at-a-time from one (m, 2 + d) block
    of normals. A block is filled in row-major order, so its row i holds the
    2 keypoint normals and then the d descriptor normals that a per-row loop
    would draw for visible landmark i, and the clutter rows then continue
    the same stream: the generator's draws, and so every array, are those of
    rendering one row at a time, bit for bit.
    """
    rng = np.random.default_rng(seed)
    points = world.landmarks.positions
    uv, z = project_points(points, pose)
    w, h = IMAGE_SIZE
    with np.errstate(over="ignore"):  # a far pose's distance is inf
        dist = np.linalg.norm(points - pose.position, axis=1)
    ok = (z > NEAR_PLANE) & (dist <= max_dist)
    ok &= (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        raise NoVisibleLandmarksError("no visible landmarks")

    d = world.landmarks.descriptors.shape[1]
    n = idx.size + noise.clutter_count
    kp = np.empty((n, 2))
    desc = np.empty((n, d))
    lid = np.full(n, -1)
    lid[: idx.size] = idx
    block = rng.standard_normal((idx.size, 2 + d))
    base = world.landmarks.descriptors[idx]
    # a noise past float range gives keypoints or descriptors that are not
    # finite or not unit length, which `generate_world` refuses
    with np.errstate(over="ignore", invalid="ignore"):
        kp[: idx.size] = uv[idx] + noise.keypoint_sigma * block[:, :2]
        desc[: idx.size] = unit_rows(base + noise.descriptor_sigma * block[:, 2:])

    fill_clutter(rng, kp, desc, idx.size)
    return ViewImage(view_id, pose, kp, desc, lid)


def _street_frame(config: WorldConfig, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and left-normal of the two-segment street at arclength s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    half = config.street_length / 2.0
    ang = np.radians(BEND_ANGLE_DEG)
    d0 = np.array([1.0, 0.0])
    d1 = np.array([np.cos(ang), np.sin(ang)])
    corner = half * d0
    pos = np.where(
        (s <= half)[:, None],
        s[:, None] * d0,
        corner + (s - half)[:, None] * d1,
    )
    direction = np.where((s <= half)[:, None], d0, d1)
    left = np.stack([-direction[:, 1], direction[:, 0]], axis=1)
    return pos, left


def _pose_at(config: WorldConfig, s: float, heading_offset_rad: float) -> CameraPose:
    pos2, left = _street_frame(config, np.array([s]))
    look = left[0]
    c, sn = np.cos(heading_offset_rad), np.sin(heading_offset_rad)
    look = np.array([c * look[0] - sn * look[1], sn * look[0] + c * look[1]])
    fx, fy = look
    # rows of R: camera right, camera down, camera forward (world coords)
    R = np.array([[fy, -fx, 0.0], [0.0, 0.0, -1.0], [fx, fy, 0.0]])
    center = np.array([pos2[0, 0], pos2[0, 1], CAMERA_HEIGHT])
    return CameraPose(rotation=quats.from_matrix(R), position=center)


def generate_world(config: WorldConfig, seed: int) -> World:
    """Deterministically generate landmarks, map views, query views and pairs.

    Raises ConfigError when the street's geometry cannot support pose
    estimation: a map view sees fewer than MIN_VISIBLE landmarks, or no
    query pose among 100 draws sees 4; and when the noise is so large that
    a view's keypoints are not finite or its descriptor rows not of unit
    length (within 1e-9). `WorldConfig` holds the size limits.
    The landmark descriptors come from one (L, d) block of normals, whose
    row i is what a per-landmark loop would draw for landmark i, and each
    view is rendered by `render_view`, so the world is bit for bit the one a
    row-at-a-time generator makes.
    """
    rng = np.random.default_rng(derive_seed(seed, 0))
    margin = 0.05 * config.street_length
    s_lm = rng.uniform(-margin, config.street_length + margin, config.num_landmarks)
    pos2, left = _street_frame(config, np.clip(s_lm, 0.0, config.street_length))
    lateral = rng.uniform(LATERAL_MIN, LATERAL_MAX, config.num_landmarks)
    along = s_lm - np.clip(s_lm, 0.0, config.street_length)  # overhang past the ends
    tangent = np.stack([left[:, 1], -left[:, 0]], axis=1)  # street direction
    xy = pos2 + lateral[:, None] * left + along[:, None] * tangent
    z = rng.uniform(0.0, HEIGHT_MAX, config.num_landmarks)

    descs = unit_rows(rng.standard_normal((config.num_landmarks, config.descriptor_dim)))
    landmarks = Landmarks(np.column_stack([xy, z]), descs)

    world = World(landmarks=landmarks, map_views=[], query_views=[], matching_pairs=[], seed=seed)

    heading_rng = np.random.default_rng(derive_seed(seed, 1))
    for i in range(config.num_map_views):
        s = (i + 0.5) * config.street_length / config.num_map_views
        jitter = np.radians(HEADING_JITTER_DEG) * heading_rng.standard_normal()
        pose = _pose_at(config, s, jitter)
        try:
            view = render_view(
                world, pose, config.noise, derive_seed(seed, 2, i), config.visibility_radius, view_id=i
            )
            n_lm = int(np.sum(view.lid >= 0))
        except NoVisibleLandmarksError:
            n_lm = 0
        if n_lm < MIN_VISIBLE:
            raise ConfigError(f"degenerate world: map view {i} sees only {n_lm} landmarks")
        world.map_views.append(view)

    query_rng = np.random.default_rng(derive_seed(seed, 3))
    next_id = config.num_map_views
    for i in range(config.num_query_views):
        view = None
        for _ in range(100):  # bounded redraw; deterministic given the rng stream
            s = query_rng.uniform(0.0, config.street_length)
            jitter = np.radians(QUERY_ROTATION_SIGMA_DEG) * query_rng.standard_normal()
            pose = _pose_at(config, s, jitter)
            offset = QUERY_TRANSLATION_SIGMA * query_rng.standard_normal(2)
            pose = CameraPose(rotation=pose.rotation, position=pose.position + np.array([offset[0], offset[1], 0.0]))
            try:
                candidate = render_view(
                    world, pose, config.noise, derive_seed(seed, 4, i), config.visibility_radius, view_id=next_id
                )
            except NoVisibleLandmarksError:
                continue
            if int(np.sum(candidate.lid >= 0)) >= 4:
                view = candidate
                break
        if view is None:
            raise ConfigError(f"degenerate world: query view {i} sees < 4 landmarks")
        world.query_views.append(view)
        next_id += 1

    for view in world.map_views + world.query_views:
        if not np.isfinite(view.kp).all():
            raise ConfigError(f"world.noise: view {view.id}'s keypoints are not finite")
        if not (np.abs(row_norms(view.desc) - 1.0) <= 1e-9).all():
            raise ConfigError(f"world.noise: view {view.id}'s descriptors are not unit length")
    world.matching_pairs = make_matching_pairs(world, config.min_coobs)
    return world


def shared_landmarks(views: list[ViewImage]) -> dict[tuple[int, int], int]:
    """`{(a, b): n}` for every two views that see n >= 1 landmarks in common,
    keyed by their ids, the one listed first in `views` first, in list order.
    Each n is an entry of one integer product of 0/1 landmark rows."""
    width = max([0] + [int(v.lid.max()) + 1 for v in views])
    seen = np.zeros((len(views), width), dtype=np.int32)
    for row, v in enumerate(views):
        seen[row, v.lid[v.lid >= 0]] = 1
    counts = seen @ seen.T
    return {
        (views[a].id, views[b].id): int(counts[a, b])
        for a, b in zip(*np.nonzero(np.triu(counts, 1)))
    }


def make_matching_pairs(world: World, min_coobs: int) -> list[tuple[int, int, int]]:
    """All map-view pairs (i < j) sharing at least `min_coobs` landmark ids."""
    if min_coobs < 1:
        raise ValueError("min_coobs must be >= 1")
    shared = shared_landmarks(world.map_views)
    return [(a, b, n) for (a, b), n in shared.items() if n >= min_coobs]
