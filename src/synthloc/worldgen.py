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
class CameraIntrinsics:
    focal: float
    principal_point: np.ndarray  # (2,) pixels
    image_size: tuple[int, int]  # (width, height)

    def __post_init__(self) -> None:
        self.principal_point = np.asarray(self.principal_point, dtype=float)
        w, h = self.image_size
        if self.focal <= 0:
            raise ValueError("focal must be positive")
        if not (0 <= self.principal_point[0] < w and 0 <= self.principal_point[1] < h):
            raise ValueError("principal point outside image bounds")


@dataclass
class ViewImage:
    """One image as three row-aligned arrays over its n >= 1 features:
    `kp` (n, 2) float pixel keypoints, `desc` (n, d) float descriptors and
    `lid` (n,) int landmark ids, -1 for clutter.

    Views are immutable once built: the arrays are made read-only, and
    producers (rendering, variants, the CSV reader) write them once, so a
    changed view is a new view."""

    id: int
    pose: CameraPose
    intrinsics: CameraIntrinsics
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

    def visible_landmark_set(self) -> frozenset[int]:
        return frozenset(self.lid[self.lid >= 0].tolist())


@dataclass
class RenderNoise:
    keypoint_sigma: float = 0.3  # px
    descriptor_sigma: float = 0.05
    clutter_count: int = 5

    def __post_init__(self) -> None:
        require_number("keypoint_sigma", self.keypoint_sigma, 0)
        require_number("descriptor_sigma", self.descriptor_sigma, 0)
        require_integer("clutter_count", self.clutter_count, 0)


@dataclass
class WorldConfig:
    num_landmarks: int = 500
    descriptor_dim: int = 32
    num_map_views: int = 40
    num_query_views: int = 20
    street_length: float = 100.0
    bend_angle_deg: float = 25.0
    lateral_min: float = 6.0
    lateral_max: float = 14.0
    height_max: float = 8.0
    camera_height: float = 1.6
    focal: float = 400.0
    image_width: int = 640
    image_height: int = 480
    visibility_radius: float = 30.0
    min_visible: int = 8
    heading_jitter_deg: float = 2.0
    query_translation_sigma: float = 0.7
    query_rotation_sigma_deg: float = 2.0
    min_coobs: int = 10
    noise: RenderNoise = field(default_factory=RenderNoise)

    def __post_init__(self) -> None:
        # sizes too small for a usable world are left to generate_world,
        # which reports them as a degenerate world
        for name in ("num_landmarks", "descriptor_dim", "num_map_views", "num_query_views", "min_visible"):
            require_integer(name, getattr(self, name), 0)
        for name in ("image_width", "image_height", "min_coobs"):
            require_integer(name, getattr(self, name), 1)
        for name in ("street_length", "focal"):
            require_number(name, getattr(self, name), 0, strict=True)
        for name in (
            "lateral_min", "height_max", "heading_jitter_deg",
            "query_translation_sigma", "query_rotation_sigma_deg",
        ):
            require_number(name, getattr(self, name), 0)
        require_number("lateral_max", self.lateral_max, self.lateral_min)
        for name in ("bend_angle_deg", "camera_height", "visibility_radius"):
            require_number(name, getattr(self, name))
        if not isinstance(self.noise, RenderNoise):
            raise ValueError(f"noise must be a section of noise keys, not {self.noise!r}")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            focal=self.focal,
            principal_point=np.array([self.image_width / 2.0, self.image_height / 2.0]),
            image_size=(self.image_width, self.image_height),
        )


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


def project_points(points: np.ndarray, pose: CameraPose, intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection. Returns (uv array, depth array); callers mask by depth."""
    R = pose.matrix()
    cam = (np.atleast_2d(points) - pose.position) @ R.T
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.focal * cam[:, 0] / z + intr.principal_point[0]
        v = intr.focal * cam[:, 1] / z + intr.principal_point[1]
    return np.stack([u, v], axis=1), z


def visible_mask(points: np.ndarray, pose: CameraPose, intr: CameraIntrinsics, max_dist: float) -> np.ndarray:
    uv, z = project_points(points, pose, intr)
    w, h = intr.image_size
    dist = np.linalg.norm(points - pose.position, axis=1)
    ok = (z > NEAR_PLANE) & (dist <= max_dist)
    ok &= (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
    return ok


def unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of the (m, d) array `x`, each divided by its length. The
    stacked row dot products round like the 1-D `np.linalg.norm` of each row
    (`sqrt(x.dot(x))`), so every row equals the per-row normalisation bit for
    bit."""
    return x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def fill_clutter(
    rng: np.random.Generator,
    kp: np.ndarray,
    desc: np.ndarray,
    first: int,
    image_size: tuple[int, int],
) -> None:
    """Fill rows `first`.. of `kp` and `desc` with clutter, one row at a time:
    a uniform keypoint in the image, then a random unit descriptor.

    The rows cannot share one draw: each standard normal is a ziggurat draw
    that takes a variable number of raw 64-bit values, so the uniforms and
    normals of later rows sit at stream offsets known only after the earlier
    draws. `rng.random(2) * high` is what `rng.uniform(0.0, image_size)`
    computes (`0.0 + high * U`), and `x / sqrt(x.dot(x))` is the 1-D
    `np.linalg.norm` normalisation, both without numpy's per-call overhead."""
    high = np.array(image_size, dtype=float)
    for row in range(first, kp.shape[0]):
        kp[row] = rng.random(2) * high
        x = rng.standard_normal(desc.shape[1])
        desc[row] = x / math.sqrt(x.dot(x))


def render_view(
    world: World,
    pose: CameraPose,
    intrinsics: CameraIntrinsics,
    noise: RenderNoise,
    seed: int,
    view_id: int = -1,
    max_dist: float | None = None,
) -> ViewImage:
    """Render the landmarks visible from `pose` into a feature set.

    Keypoints are exact pinhole projections plus Gaussian pixel noise;
    descriptors are renormalized noisy copies of the landmark descriptors.
    `clutter_count` extra features carry random unit descriptors and no
    landmark id. Raises NoVisibleLandmarksError when the frustum is empty.

    The visible rows are rendered array-at-a-time from one (m, 2 + d) block
    of normals. A block is filled in row-major order, so its row i holds the
    2 keypoint normals and then the d descriptor normals that a per-row loop
    would draw for visible landmark i, and the clutter rows then continue
    the same stream: the generator's draws, and so every array, are those of
    rendering one row at a time, bit for bit.
    """
    rng = np.random.default_rng(seed)
    points = world.landmarks.positions
    radius = max_dist if max_dist is not None else np.inf
    mask = visible_mask(points, pose, intrinsics, radius)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise NoVisibleLandmarksError("no visible landmarks")

    uv, _ = project_points(points[idx], pose, intrinsics)
    d = world.landmarks.descriptors.shape[1]
    n = idx.size + noise.clutter_count
    kp = np.empty((n, 2))
    desc = np.empty((n, d))
    lid = np.full(n, -1)
    lid[: idx.size] = idx
    block = rng.standard_normal((idx.size, 2 + d))
    kp[: idx.size] = uv + noise.keypoint_sigma * block[:, :2]
    base = world.landmarks.descriptors[idx]
    desc[: idx.size] = unit_rows(base + noise.descriptor_sigma * block[:, 2:])

    fill_clutter(rng, kp, desc, idx.size, intrinsics.image_size)
    return ViewImage(view_id, pose, intrinsics, kp, desc, lid)


def _street_frame(config: WorldConfig, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position and left-normal of the two-segment street at arclength s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    half = config.street_length / 2.0
    ang = np.radians(config.bend_angle_deg)
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


def _pose_at(config: WorldConfig, s: float, heading_offset_rad: float, height: float) -> CameraPose:
    pos2, left = _street_frame(config, np.array([s]))
    look = left[0]
    c, sn = np.cos(heading_offset_rad), np.sin(heading_offset_rad)
    look = np.array([c * look[0] - sn * look[1], sn * look[0] + c * look[1]])
    fx, fy = look
    # rows of R: camera right, camera down, camera forward (world coords)
    R = np.array([[fy, -fx, 0.0], [0.0, 0.0, -1.0], [fx, fy, 0.0]])
    center = np.array([pos2[0, 0], pos2[0, 1], height])
    return CameraPose(rotation=quats.from_matrix(R), position=center)


def generate_world(config: WorldConfig, seed: int) -> World:
    """Deterministically generate landmarks, map views, query views and pairs.

    Raises ConfigError for configs that cannot support pose estimation
    (too few landmarks, views seeing fewer than 4 of them, ...).
    The landmark descriptors come from one (L, d) block of normals, whose
    row i is what a per-landmark loop would draw for landmark i, and each
    view is rendered by `render_view`, so the world is bit for bit the one a
    row-at-a-time generator makes.
    """
    if config.num_landmarks < 10:
        raise ConfigError("degenerate world: num_landmarks < 10")
    if config.descriptor_dim < 4:
        raise ConfigError("degenerate world: descriptor_dim < 4")
    if config.num_map_views < 2:
        raise ConfigError("degenerate world: trajectory needs >= 2 views")
    if config.visibility_radius <= 0:
        raise ConfigError("degenerate world: visibility radius must be > 0")

    rng = np.random.default_rng(derive_seed(seed, 0))
    margin = 0.05 * config.street_length
    s_lm = rng.uniform(-margin, config.street_length + margin, config.num_landmarks)
    pos2, left = _street_frame(config, np.clip(s_lm, 0.0, config.street_length))
    lateral = rng.uniform(config.lateral_min, config.lateral_max, config.num_landmarks)
    along = s_lm - np.clip(s_lm, 0.0, config.street_length)  # overhang past the ends
    tangent = np.stack([left[:, 1], -left[:, 0]], axis=1)  # street direction
    xy = pos2 + lateral[:, None] * left + along[:, None] * tangent
    z = rng.uniform(0.0, config.height_max, config.num_landmarks)

    descs = unit_rows(rng.standard_normal((config.num_landmarks, config.descriptor_dim)))
    landmarks = Landmarks(np.column_stack([xy, z]), descs)

    world = World(landmarks=landmarks, map_views=[], query_views=[], matching_pairs=[], seed=seed)
    intr = config.intrinsics()

    heading_rng = np.random.default_rng(derive_seed(seed, 1))
    for i in range(config.num_map_views):
        s = (i + 0.5) * config.street_length / config.num_map_views
        jitter = np.radians(config.heading_jitter_deg) * heading_rng.standard_normal()
        pose = _pose_at(config, s, jitter, config.camera_height)
        try:
            view = render_view(
                world,
                pose,
                intr,
                config.noise,
                derive_seed(seed, 2, i),
                view_id=i,
                max_dist=config.visibility_radius,
            )
            n_lm = int(np.sum(view.lid >= 0))
        except NoVisibleLandmarksError:
            n_lm = 0
        if n_lm < max(4, config.min_visible):
            raise ConfigError(f"degenerate world: map view {i} sees only {n_lm} landmarks")
        world.map_views.append(view)

    query_rng = np.random.default_rng(derive_seed(seed, 3))
    next_id = config.num_map_views
    for i in range(config.num_query_views):
        view = None
        for _ in range(100):  # bounded redraw; deterministic given the rng stream
            s = query_rng.uniform(0.0, config.street_length)
            jitter = np.radians(config.query_rotation_sigma_deg) * query_rng.standard_normal()
            pose = _pose_at(config, s, jitter, config.camera_height)
            offset = config.query_translation_sigma * query_rng.standard_normal(2)
            pose = CameraPose(rotation=pose.rotation, position=pose.position + np.array([offset[0], offset[1], 0.0]))
            try:
                candidate = render_view(
                    world,
                    pose,
                    intr,
                    config.noise,
                    derive_seed(seed, 4, i),
                    view_id=next_id,
                    max_dist=config.visibility_radius,
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

    world.matching_pairs = make_matching_pairs(world, config.min_coobs)
    return world


def make_matching_pairs(world: World, min_coobs: int) -> list[tuple[int, int, int]]:
    """All map-view pairs (i < j) sharing at least `min_coobs` landmark ids."""
    if min_coobs < 1:
        raise ValueError("min_coobs must be >= 1")
    sets = [(v.id, v.visible_landmark_set()) for v in world.map_views]
    pairs = []
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            count = len(sets[a][1] & sets[b][1])
            if count >= min_coobs:
                pairs.append((sets[a][0], sets[b][0], count))
    return pairs

