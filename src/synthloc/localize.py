"""Pose protocols over ranked retrieval lists: equal-weighted barycenter
approximation, PnP+RANSAC against the map's 3D points, and the localization
accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quats
from .embed import EmbeddingModel
from .errors import (
    InsufficientCorrespondencesError,
    NoConsensusError,
    is_finite_number,
    require_integer,
    require_number,
)
from .geometry import MatchParams, match_features
from .index import RankedList
from .worldgen import NEAR_PLANE, CameraIntrinsics, CameraPose, Landmarks, ViewImage, project, row_norms, unit_rows


@dataclass
class PoseError:
    translation: float  # meters
    rotation: float  # degrees


LEVELS = ("high", "mid", "low")  # the accuracy levels, strict to loose

PLACE_RECOGNITION_RADIUS_M = 25.0


@dataclass
class RansacParams:
    iterations: int = 1000  # upper bound; pnp_ransac may stop sooner, consensus or not
    inlier_px: float = 3.0
    min_inliers: int = 8
    seed: int = 0
    confidence: float = 0.99

    def __post_init__(self) -> None:
        require_integer("iterations", self.iterations, 1)
        require_number("inlier_px", self.inlier_px, 0, strict=True)
        require_integer("min_inliers", self.min_inliers, 0)
        if not (is_finite_number(self.confidence) and 0 < self.confidence < 1):
            raise ValueError("confidence must be in (0, 1)")


def ewb_pose(ranked: RankedList, poses: dict[int, CameraPose], k: int) -> CameraPose:
    """Equal-weighted barycenter of the top-k poses: arithmetic mean of the
    camera centers and a sign-aligned chordal mean of the rotations. k=1 is
    exactly the top-1 pose."""
    if not ranked:
        raise ValueError("empty ranking")
    top = [poses[vid] for vid, _ in ranked[:k]]
    if len(top) == 1:
        return top[0]
    if all(
        np.array_equal(p.position, top[0].position) and np.array_equal(p.rotation, top[0].rotation)
        for p in top[1:]
    ):
        return top[0]
    position = np.mean([p.position for p in top], axis=0)
    rotation = quats.chordal_mean([p.rotation for p in top])
    return CameraPose(rotation=rotation, position=position)


def _dlt_system(points3d: np.ndarray, norm_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized direct linear transform for [R|t] of `b` stacked
    problems of `m >= 6` points, (b, m, 3) points and (b, m, 2) normalized
    image coordinates: the (b, 2m, 12) systems A and the (b, 4, 4) transforms
    T that undo the normalization, P = null(A) @ T."""
    b, m, _ = points3d.shape
    # np.mean and np.linalg.norm without their wrappers: the same reductions
    centroid = np.add.reduce(points3d, axis=1) / m
    d = points3d - centroid[:, None]
    spread = np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=2)), axis=1) / m
    # sqrt(3) / spread, and 1 where the points coincide (x / x is exactly 1)
    scale = np.sqrt(3.0) / np.where(spread > 0, spread, np.sqrt(3.0))
    Xh = np.concatenate([d * scale[:, None, None], np.ones((b, m, 1))], axis=2)
    A = np.zeros((b, 2 * m, 12))
    A[:, 0::2, 0:4] = Xh
    A[:, 0::2, 8:12] = -norm_xy[:, :, 0:1] * Xh
    A[:, 1::2, 4:8] = Xh
    A[:, 1::2, 8:12] = -norm_xy[:, :, 1:2] * Xh
    # undo the 3D normalization: X' = scale * (X - centroid)
    T = np.zeros((b, 4, 4))
    T[:, [0, 1, 2], [0, 1, 2]] = scale[:, None]
    T[:, :3, 3] = -scale[:, None] * centroid
    T[:, 3, 3] = 1.0
    return A, T


def _rt_from_projection(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (b, 3, 3) world-to-camera rotations and (b, 3) centers of (b, 3, 4)
    projections P ~ [R|t] of either sign and any scale: P's sign is flipped
    where det(P[:, :3]) < 0, and its left block projected to a rotation by SVD."""
    b = P.shape[0]
    P = np.where((np.linalg.det(P[:, :, :3]) < 0)[:, None, None], -P, P)
    U, s, Vt = np.linalg.svd(P[:, :, :3])
    D = np.zeros((b, 3, 3))
    D[:, 0, 0] = D[:, 1, 1] = 1.0
    D[:, 2, 2] = np.linalg.det(U @ Vt)
    R = U @ D @ Vt
    sigma = np.mean(s, axis=1)
    t = P[:, :, 3] / sigma[:, None]
    return R, (-R.transpose(0, 2, 1) @ t[:, :, None])[:, :, 0]


def _residuals(
    R: np.ndarray, center: np.ndarray, points3d: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics
) -> np.ndarray:
    """Reprojection errors in pixels of all n correspondences under each of
    `b` poses, (b, 3, 3) rotations and (b, 3) centers: a (b, n) array, inf
    where a point is not in front of the near plane or a pose is NaN."""
    u, v, z = project(points3d, R, center, intr)
    with np.errstate(invalid="ignore"):
        res = np.hypot(u - pixels[:, 0], v - pixels[:, 1])
    return np.where(z > NEAR_PLANE, res, np.inf)


# Samples per chunk. Most solves stop within 16 samples: chunks of 32 ran
# about 9% slower, solving samples they discard, and 8 ran as fast as 16.
_CHUNK = 16


def _draw_samples(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """The (b, 3) array that b calls of `rng.choice(n, 3, replace=False)`
    stack to, from one `rng.integers` call that leaves `rng` in the same state.

    For three values `choice` is Floyd's sampling (Bentley & Floyd, CACM 1987)
    at every n, column k taking a draw in [0, n-3+k] or n-3+k if an earlier
    column holds it, then a shuffle swapping column i with a draw in [0, i]
    for i = 2, 1: five bounded draws, which `integers` takes in array order."""
    highs = np.array([n - 3, n - 2, n - 1, 2, 1])
    draws = rng.integers(0, highs, size=(b, 5), endpoint=True).T
    picks = draws[:3].copy()
    for k in (1, 2):
        picks[k][(picks[:k] == picks[k]).any(axis=0)] = n - 3 + k
    rows = np.arange(b)
    for i, j in zip((2, 1), draws[3:]):
        picks[i], picks[j, rows] = picks[j, rows], picks[i].copy()
    return picks.T


# How far off side a, relative to the squared depths, a second depth may be:
# far above a near-double root's error, far below a wrong intersection's.
_ON_SIDE = 1e-6


def _squared_sides(p: np.ndarray) -> np.ndarray:
    """The (k, 3) squared sides a, b, c opposite the k triangles' (k, 3, 3) points."""
    gap = p[:, [1, 0, 0]] - p[:, [2, 2, 1]]
    return np.add.reduce(gap * gap, axis=2)


def _frames(p: np.ndarray) -> np.ndarray:
    """The (k, 3, 3) orthonormal frames of the k triangles p (k, 3, 3), axes
    in columns: p₁→p₂, towards p₃ in-plane, their cross; NaN if degenerate."""
    e1 = unit_rows(p[:, 1] - p[:, 0])
    e2 = p[:, 2] - p[:, 0]
    e2 = unit_rows(e2 - (e2[:, None] @ e1[:, :, None])[:, 0] * e1)
    e3 = e1[:, [1, 2, 0]] * e2[:, [2, 0, 1]] - e1[:, [2, 0, 1]] * e2[:, [1, 2, 0]]  # np.cross, less overhead
    return np.stack([e1, e2, e3], axis=2)


def _p3p(X: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The poses that see the b triangles X (b, 3, 3) of world points along
    the unit bearings f (b, 3, 3), by Grunert's quartic in v = d₃/d₁ for the
    depths d (Haralick et al., IJCV 1994, §2.1), its roots the eigenvalues of
    its companion matrix as in `np.roots`. Each real (zero imaginary part)
    positive root gives d₁ and d₃ by side b, and each positive depth on ray 2
    at side c from point 1 that lies at side a from point 3 (`_ON_SIDE`) is a
    solution; Grunert's linear d₂ is 0/0 where both do. Two Newton steps on
    the squared sides polish the depths, as in Lambda Twist (Persson &
    Nordberg, ECCV 2018), and a pose aligns the two triangles' frames.
    Returns the solutions' samples (k,), in order, roots (k,), rotations
    (k, 3, 3) and centers (k, 3); a non-finite quartic gives none and a
    degenerate triangle NaN poses. Each sample is solved as if alone."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sides = _squared_sides(X)
        a2, b2, c2 = sides.T
        ca, cb, cg = np.add.reduce(f[:, [1, 0, 0]] * f[:, [2, 2, 1]], axis=2).T
        k1, k2, cc, aa = (a2 - c2) / b2, (a2 + c2) / b2, c2 / b2, a2 / b2
        quartic = [
            (k1 - 1) ** 2 - 4 * cc * ca**2,
            4 * (k1 * (1 - k1) * cb - (1 - k2) * ca * cg + 2 * cc * ca**2 * cb),
            2 * (k1**2 - 1 + 2 * k1**2 * cb**2 + 2 * (1 - cc) * ca**2 - 4 * k2 * ca * cb * cg + 2 * (1 - aa) * cg**2),
            4 * (-k1 * (1 + k1) * cb + 2 * aa * cg**2 * cb - (1 - k2) * ca * cg),
            (1 + k1) ** 2 - 4 * aa * cg**2,
        ]
        companion = np.zeros((len(X), 4, 4))
        companion[:, 0] = -np.stack(quartic[1:], axis=1) / quartic[0][:, None]
        companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
        finite = np.isfinite(companion[:, 0]).all(axis=1)
        companion[~finite, 0] = 0.0  # eigvals refuses a stack that holds a NaN
        w = np.linalg.eigvals(companion)
        s, i = np.nonzero(finite[:, None] & (w.imag == 0) & (w.real > 0))
        v, g = w.real[s, i], np.column_stack([sides, ca, cb, cg])[s]
        a2, b2, c2, ca, cb, cg = g.T
        d1 = np.sqrt(b2 / (1 + v * (v - 2 * cb)))
        d3 = v * d1
        d2 = (d1 * cg)[:, None] + np.sqrt(np.maximum(c2 - d1 * d1 * (1 - cg * cg), 0.0))[:, None] * [1.0, -1.0]
        off = d2 * (d2 - (2 * d3 * ca)[:, None]) + (d3 * d3 - a2)[:, None]
        j, side = np.nonzero((d2 > 0) & (np.abs(off) <= _ON_SIDE * (d2 * d2 + (d3 * d3)[:, None])))
        s, v, g, f = s[j], v[j], g[j], f[s[j]]
        d = np.stack([d1[j], d2[j, side], d3[j]], axis=1)
        ca, cb, cg = g[:, 3:].T
        for _ in range(2):
            F3, F2, F1 = (_squared_sides(d[:, :, None] * f) - g[:, :3]).T
            d1, d2, d3 = d.T
            # the Jacobian over 2 is [[p, q, 0], [r, 0, t], [0, x, y]]; Cramer's rule
            p, q, r, t, x, y = d1 - d2 * cg, d2 - d1 * cg, d1 - d3 * cb, d3 - d1 * cb, d2 - d3 * ca, d3 - d2 * ca
            step = [q * t * F3 - F1 * t * x - q * F2 * y, p * F2 * y - p * t * F3 - F1 * r * y,
                    F1 * r * x - p * F2 * x - q * r * F3]
            d = d + np.stack(step, axis=1) / (2 * (p * t * x + q * r * y))[:, None]
        cam = d[:, :, None] * f
        R = _frames(cam) @ _frames(X)[s].transpose(0, 2, 1)
        center = X[s, 0] - (R.transpose(0, 2, 1) @ cam[:, 0, :, None])[:, :, 0]
    return s, v, R, center


def _hypothesis_masks(
    samples: np.ndarray, points: np.ndarray, rays: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics,
    inlier_px: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (b, n) inlier masks of the (b, 3) samples, in order, and their (b,)
    inlier counts, given unit bearings `rays`: a sample's best P3P pose, the
    smaller root winning a tie, or 0 and an empty mask if it has none."""
    s, roots, R, center = _p3p(points[samples], rays[samples])
    masks = _residuals(R, center, points, pixels, intr) <= inlier_px
    counts = np.count_nonzero(masks, axis=1)
    order = np.lexsort((roots, -counts, s))  # by sample, then best count, then smaller root
    best = order[np.diff(s[order], prepend=-1) != 0]
    out = np.zeros((len(samples), len(points)), dtype=bool)
    out[s[best]] = masks[best]
    total = np.zeros(len(samples), dtype=int)
    total[s[best]] = counts[best]
    return out, total


def pnp_ransac(
    corr_2d3d: list[tuple[np.ndarray, np.ndarray]],
    intrinsics: CameraIntrinsics,
    params: RansacParams,
) -> tuple[CameraPose, list[int]]:
    """RANSAC over P3P pose hypotheses with a full-inlier DLT refit.

    Returns the refit pose and the inlier indices under it. Raises
    InsufficientCorrespondencesError below 6 points and NoConsensusError when
    no hypothesis reaches least = max(min_inliers, 6) inliers, without drawing
    any when there are fewer than least points. Deterministic per seed.

    A hypothesis is a sample of three points; it counts the most inliers any
    of its P3P poses gets, and 0 with no real, finite pose. A solve draws at
    most start = bound(C(least, 3) / C(n, 3)) samples, bound(p) =
    min(iterations, max(1, ceil(log(1 - confidence) / log(1 - p)))) being the
    draws that take a sample of probability p with probability confidence:
    a solve without consensus ends once a consensus of least inliers, had
    one existed, would have had a sample drawn from it alone. Each new best
    count c sets the stop to min(start, bound((c / n)**3)).

    Samples are solved in chunks of at most _CHUNK, never more than the
    remaining budget, with the result of drawing them one at a time with
    `rng.choice(n, 3, replace=False)`: a chunk is walked in draw order with
    the strict best-count update and the stop, and later samples discarded.
    The refit, whose pose is returned, takes the SVD of all inliers' DLT.
    """
    n = len(corr_2d3d)
    if n < 6:
        raise InsufficientCorrespondencesError("insufficient correspondences")
    least = max(params.min_inliers, 6)  # the fewest inliers a consensus holds
    if n < least:
        raise NoConsensusError("no consensus")  # no mask can hold least
    pixels = np.array([c[0] for c in corr_2d3d], dtype=float)
    points = np.array([c[1] for c in corr_2d3d], dtype=float)
    norm_xy = (pixels - intrinsics.principal_point) / intrinsics.focal
    rays = unit_rows(np.column_stack([norm_xy, np.ones(n)]))

    log_miss = np.log(max(1.0 - params.confidence, 1e-12))

    def bound(p: float) -> int:
        denom = np.log(max(1.0 - p, 1e-12))
        if denom == 0.0:  # p is below float resolution: no stop short of the budget
            return params.iterations
        return max(1, min(params.iterations, int(np.ceil(log_miss / denom))))

    start = bound(math.comb(least, 3) / math.comb(n, 3))
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best_mask: np.ndarray | None = None
    needed = start
    it = 0
    while it < needed:
        b = min(_CHUNK, needed - it)
        samples = _draw_samples(rng, n, b)
        masks, counts = _hypothesis_masks(samples, points, rays, pixels, intrinsics, params.inlier_px)
        for h, count in enumerate(counts.tolist()):
            it += 1
            if count > best_count:
                best_count = count
                best_mask = masks[h]
                needed = min(start, bound((count / n) ** 3))
            if it >= needed:
                break
    if best_mask is None or best_count < least:
        raise NoConsensusError("no consensus")

    idx = np.nonzero(best_mask)[0]
    A, T = _dlt_system(points[idx][None], norm_xy[idx][None])
    _, _, vt = np.linalg.svd(A, full_matrices=False)
    R, center = _rt_from_projection(vt[:, -1].reshape(1, 3, 4) @ T)
    pose = CameraPose(rotation=quats.from_matrix(R[0]), position=center[0])
    res = _residuals(pose.matrix()[None], pose.position[None], points, pixels, intrinsics)[0]
    final = np.nonzero(res <= params.inlier_px)[0]
    if final.size < least:
        raise NoConsensusError("no consensus")
    return pose, [int(i) for i in final]


def sfm_localize(
    query: ViewImage,
    ranked: RankedList,
    map_views: dict[int, ViewImage],
    landmarks: Landmarks,
    model: EmbeddingModel,
    k: int,
    match_params: MatchParams,
    ransac_params: RansacParams,
) -> CameraPose:
    """Match the query against the top-k map views, lift matched map features
    to their landmarks' 3D positions (deduplicated per landmark by descriptor
    distance), and solve PnP+RANSAC."""
    corr: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    dq = query.desc
    kq = query.kp
    for vid, _score in ranked[:k]:
        view = map_views[vid]
        iq, iv = match_features(query, view, match_params)
        lids = view.lid[iv]
        mapped = lids >= 0
        iq, iv, lids = iq[mapped], iv[mapped], lids[mapped]
        dists = row_norms(dq[iq] - view.desc[iv])[:, 0]
        for q, lid, dist in zip(iq.tolist(), lids.tolist(), dists.tolist()):
            if lid not in corr or dist < corr[lid][0]:
                corr[lid] = (dist, kq[q], landmarks.positions[lid])
    corr_2d3d = [(corr[lid][1], corr[lid][2]) for lid in sorted(corr)]
    pose, _ = pnp_ransac(corr_2d3d, query.intrinsics, ransac_params)
    return pose


def pose_error(est: CameraPose, gt: CameraPose) -> PoseError:
    translation = float(np.linalg.norm(est.position - gt.position))
    rotation = quats.rotation_angle_deg(est.matrix() @ gt.matrix().T)
    return PoseError(translation=translation, rotation=rotation)


def localization_rate(
    errors: list[PoseError | None], thresholds: dict[str, list[float]]
) -> dict[str, float]:
    """Percentage localized per accuracy level, given as `{level: [max
    translation m, max rotation deg]}`; None entries (queries the protocol
    failed on) count as failures at every level."""
    n = len(errors)
    out = {}
    for name in LEVELS:
        max_t, max_r = thresholds[name]
        if n == 0:
            out[name] = 0.0
            continue
        ok = sum(
            1 for e in errors if e is not None and e.translation <= max_t and e.rotation <= max_r
        )
        out[name] = 100.0 * ok / n
    return out


def recall_at_k(
    rankings: dict[int, RankedList],
    positions: dict[int, np.ndarray],
    radius: float = PLACE_RECOGNITION_RADIUS_M,
    ks: list[int] = (1, 5, 10),
) -> dict[int, float]:
    """R@k: fraction of queries with at least one of the top-k retrieved views
    within `radius` meters of the query's ground-truth position."""
    out = {}
    for k in ks:
        hits = 0
        for qid, ranked in rankings.items():
            qpos = positions[qid]
            for vid, _ in ranked[:k]:
                if float(np.linalg.norm(positions[vid] - qpos)) <= radius:
                    hits += 1
                    break
        out[k] = hits / len(rankings) if rankings else 0.0
    return out
