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
from .worldgen import (
    FOCAL, NEAR_PLANE, PRINCIPAL_POINT, CameraPose, Landmarks, ViewImage, project, row_norms, unit_rows,
)


@dataclass
class PoseError:
    translation: float  # meters
    rotation: float  # degrees


# the accuracy levels, strict to loose: {level: (max translation m, max rotation deg)}
LEVELS = {"high": (0.25, 2.0), "mid": (0.5, 5.0), "low": (5.0, 10.0)}

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


def _residuals(R: np.ndarray, center: np.ndarray, points3d: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Reprojection errors in pixels of all n correspondences under each of
    `b` poses, (b, 3, 3) rotations and (b, 3) centers: a (b, n) array, inf
    where a point is not in front of the near plane or a pose is NaN."""
    u, v, z = project(points3d, R, center)
    with np.errstate(invalid="ignore"):
        res = np.hypot(u - pixels[:, 0], v - pixels[:, 1])
    return np.where(z > NEAR_PLANE, res, np.inf)


# How far off side a, relative to the squared depths, a second depth may be:
# far above a near-double root's error, far below a wrong intersection's.
_ON_SIDE = 1e-6
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # the index cycles of a cross product


def _frames(p: np.ndarray) -> np.ndarray:
    """The (k, 3, 3) orthonormal frames of the k triangles p (k, 3, 3), axes
    in columns: p₁→p₂, towards p₃ in-plane, their cross; NaN if degenerate."""
    e = np.empty(p.shape)
    e[:, :, 0] = e1 = unit_rows(p[:, 1] - p[:, 0])
    e2 = p[:, 2] - p[:, 0]
    e[:, :, 1] = e2 = unit_rows(e2 - (e2[:, None] @ e1[:, :, None])[:, 0] * e1)
    e[:, :, 2] = e1[:, _NEXT] * e2[:, _LAST] - e1[:, _LAST] * e2[:, _NEXT]  # np.cross, less overhead
    return e


def _quartic(sides: list[float], cosines: list[float]) -> list[float] | None:
    """The first row of the companion matrix of Grunert's quartic in v = d₃/d₁ for
    the depths d (Haralick et al., IJCV 1994, §2.1), as `np.roots` builds it, from the
    squared sides and the cosines of the bearings spanning them; None if not finite."""
    (a2, b2, c2), (ca, cb, cg) = sides, cosines
    b2 = b2 or math.nan  # a zero side b gives NaN coefficients, as a NaN side does
    k1, k2, cc, aa = (a2 - c2) / b2, (a2 + c2) / b2, c2 / b2, a2 / b2
    ca2, cb2, cg2 = ca * ca, cb * cb, cg * cg
    q0 = (k1 - 1) * (k1 - 1) - 4 * cc * ca2 or math.nan  # 0: a NaN row in place of an infinite one
    q1 = 4 * (k1 * (1 - k1) * cb - (1 - k2) * ca * cg + 2 * cc * ca2 * cb)
    q2 = 2 * (k1 * k1 - 1 + 2 * (k1 * k1) * cb2 + 2 * (1 - cc) * ca2 - 4 * k2 * ca * cb * cg + 2 * (1 - aa) * cg2)
    q3 = 4 * (-k1 * (1 + k1) * cb + 2 * aa * cg2 * cb - (1 - k2) * ca * cg)
    q4 = (1 + k1) * (1 + k1) - 4 * aa * cg2
    row = [-q / q0 for q in (q1, q2, q3, q4)]
    return row if all(map(math.isfinite, row)) else None


def _newton(d: tuple, f: list[list[float]], sides: list[float], cosines: list[float]) -> tuple:
    """The depths d after a Newton step on the squared sides, as in Lambda Twist (Persson &
    Nordberg, ECCV 2018); NaN where it would divide by zero, as the pose would be NaN and score 0."""
    (d1, d2, d3), (a2, b2, c2), (ca, cb, cg) = d, sides, cosines
    (u1, v1, w1), (u2, v2, w2), (u3, v3, w3) = f
    # the squared sides of the camera points d_i f_i less the world's, summed as in `_p3p`
    x, y, z = d2 * u2 - d3 * u3, d2 * v2 - d3 * v3, d2 * w2 - d3 * w3
    F3 = x * x + y * y + z * z - a2
    x, y, z = d1 * u1 - d3 * u3, d1 * v1 - d3 * v3, d1 * w1 - d3 * w3
    F2 = x * x + y * y + z * z - b2
    x, y, z = d1 * u1 - d2 * u2, d1 * v1 - d2 * v2, d1 * w1 - d2 * w2
    F1 = x * x + y * y + z * z - c2
    # the Jacobian over 2 is [[p, q, 0], [r, 0, t], [0, x, y]]; Cramer's rule
    p, q, r, t, x, y = d1 - d2 * cg, d2 - d1 * cg, d1 - d3 * cb, d3 - d1 * cb, d2 - d3 * ca, d3 - d2 * ca
    det = 2 * (p * t * x + q * r * y) or math.nan  # 0: NaN depths in place of infinite ones
    return (d1 + (q * t * F3 - F1 * t * x - q * F2 * y) / det, d2 + (p * F2 * y - p * t * F3 - F1 * r * y) / det,
            d3 + (F1 * r * x - p * F2 * x - q * r * F3) / det)


def _p3p(X: np.ndarray, f: np.ndarray) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The poses that see the triangle X (3, 3) of world points along the unit bearings f (3, 3).
    Each real (zero imaginary part), positive root v of `_quartic`, by `np.linalg.eigvals`,
    gives d₁ and d₃ by side b, and each positive depth on ray 2 at side c from point 1 that
    lies at side a from point 3 (`_ON_SIDE`) is a solution; Grunert's linear d₂ is 0/0 where
    both do. Two `_newton` steps refine the depths, and a pose aligns the two triangles'
    frames. Returns the roots, in root-then-side order, rotations (k, 3, 3) and centers
    (k, 3); a degenerate triangle gives NaN poses. The scalar steps are Python float operations
    in numpy's order, rounding as numpy's elementwise ones; the frames and poses take their dot
    products in numpy, where BLAS rounds them."""
    p, f = X.tolist(), f.tolist()
    # the squared sides a, b, c and the cosines of the bearings spanning them, summed in index order
    sides = [(x - u) * (x - u) + (y - v) * (y - v) + (z - w) * (z - w)
             for (x, y, z), (u, v, w) in ((p[1], p[2]), (p[0], p[2]), (p[0], p[1]))]
    cosines = [x * u + y * v + z * w for (x, y, z), (u, v, w) in ((f[1], f[2]), (f[0], f[2]), (f[0], f[1]))]
    (a2, b2, c2), (ca, cb, cg) = sides, cosines
    row = _quartic(sides, cosines)
    roots, cams = [], []
    companion = [row, [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]]
    for w in np.linalg.eigvals(np.array(companion)).tolist() if row else []:
        v = w.real
        den = 1 + v * (v - 2 * cb)
        if w.imag != 0 or not (v > 0 and den > 0):  # den <= 0 would give a NaN or infinite d₁
            continue
        d1 = math.sqrt(b2 / den)
        d3 = v * d1
        half = math.sqrt(max(c2 - d1 * d1 * (1 - cg * cg), 0.0))
        for d2 in (d1 * cg + half, d1 * cg - half):
            off = d2 * (d2 - 2 * d3 * ca) + (d3 * d3 - a2)
            if d2 > 0 and abs(off) <= _ON_SIDE * (d2 * d2 + d3 * d3):
                d = _newton(_newton((d1, d2, d3), f, sides, cosines), f, sides, cosines)
                if all(map(math.isfinite, d)):  # a non-finite depth would give a NaN pose
                    roots.append(v)
                    cams.append([[e * x for x in g] for e, g in zip(d, f)])
    if not cams:
        return roots, np.zeros((0, 3, 3)), np.zeros((0, 3))
    cam = np.array(cams)
    with np.errstate(divide="ignore", invalid="ignore"):
        frames = _frames(np.concatenate([cam, X[None]]))
    R = frames[:-1] @ frames[-1].T
    return roots, R, X[0] - (R.transpose(0, 2, 1) @ cam[:, 0, :, None])[:, :, 0]


def _hypothesis(sample: np.ndarray, points: np.ndarray, rays: np.ndarray, pixels: np.ndarray,
                inlier_px: float) -> tuple[int, np.ndarray, tuple | None]:
    """The inlier count, (n,) mask and (rotation, center) of the sample's P3P pose
    with the most inliers (the smaller root, then the first in root-then-side order,
    winning a tie), given unit bearings `rays`; 0, an empty mask and None if it has no pose."""
    roots, R, center = _p3p(points[sample], rays[sample])
    if not roots:
        return 0, np.zeros(len(points), dtype=bool), None
    masks = _residuals(R, center, points, pixels) <= inlier_px
    counts = np.count_nonzero(masks, axis=1).tolist()
    best = min(range(len(roots)), key=lambda j: (-counts[j], roots[j]))
    return counts[best], masks[best], (R[best], center[best])


def _refine(R: np.ndarray, center: np.ndarray, points: np.ndarray,
            norm_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Newton step from the pose (R, center) on the u, v reprojection errors,
    in normalized image coordinates, of the (m, 3) `points` seen at `norm_xy` (m, 2).
    The step moves each camera point c to c + w × c + t, solved by least squares; the
    rotation turns by the normalized quaternion (1, w/2), and the center moves by -Rᵀt.
    The camera points and Jacobian rows are elementwise, rounding as a loop over points does."""
    d = points - center
    x, y, z = (d[:, :1] * R[:, 0] + d[:, 1:2] * R[:, 1] + d[:, 2:] * R[:, 2]).T
    u, v, zero = x / z, y / z, np.zeros_like(z)
    J = np.stack([-u * v, 1 + u * u, -v, 1 / z, zero, -u / z, -1 - v * v, u * v, u, zero, 1 / z, -v / z], 1)
    step = np.linalg.lstsq(J.reshape(-1, 6), (norm_xy - np.stack([u, v], 1)).ravel(), rcond=None)[0]
    R = quats.to_matrix(quats.canonical(np.concatenate([[1.0], step[:3] / 2]))) @ R
    return R, center - R.T @ step[3:]


def pnp_ransac(pixels: np.ndarray, points: np.ndarray, params: RansacParams) -> tuple[CameraPose, np.ndarray]:
    """RANSAC over P3P pose hypotheses, the best refined by one Gauss-Newton step
    on the reprojection errors of its inliers (`_refine`).

    Correspondence i is the keypoint `pixels[i]` of the float (n, 2) array
    seeing the landmark at `points[i]` of the float (n, 3) array, through
    `worldgen`'s one camera (`FOCAL`, `PRINCIPAL_POINT`); other shapes raise
    ValueError. Returns the refined pose and the indices of the inliers under
    it, ascending, as the int array `np.nonzero` gives. Raises
    InsufficientCorrespondencesError below 6 points and NoConsensusError when
    no hypothesis reaches least = max(min_inliers, 6) inliers, without drawing
    any when there are fewer than least points. Deterministic per seed.

    Each sample of three points is drawn by `rng.choice(n, 3, replace=False)`
    when the walk reaches it, and counts the most inliers any of its P3P poses
    gets, 0 with none. The stop starts at bound(C(least, 3) / C(n, 3)),
    bound(p) = min(iterations, max(1, ceil(log(1 - confidence) / log(1 - p))))
    being the draws that take a sample of probability p with probability
    confidence: a solve without consensus ends once a consensus of least
    inliers, had one existed, would have had a sample drawn from it alone. Each
    best count c, strictly above the last, moves the stop to
    min(start, bound((c / n)**3)). No sample past it is drawn.
    """
    if pixels.shape != (len(points), 2) or points.shape != (len(pixels), 3):
        raise ValueError(f"pixels {pixels.shape} and points {points.shape} must be (n, 2) and (n, 3)")
    n = len(pixels)
    if n < 6:
        raise InsufficientCorrespondencesError("insufficient correspondences")
    least = max(params.min_inliers, 6)  # the fewest inliers a consensus holds
    if n < least:
        raise NoConsensusError("no consensus")  # no mask can hold least
    norm_xy = (pixels - PRINCIPAL_POINT) / FOCAL
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
    needed, it = start, 0
    while it < needed:
        it += 1
        sample = rng.choice(n, 3, replace=False)
        count, mask, rt = _hypothesis(sample, points, rays, pixels, params.inlier_px)
        if count > best_count:
            best_count, best_mask, best_rt = count, mask, rt
            needed = min(start, bound((count / n) ** 3))
    if best_count < least:
        raise NoConsensusError("no consensus")

    R, center = _refine(*best_rt, points[best_mask], norm_xy[best_mask])
    pose = CameraPose(rotation=quats.from_matrix(R), position=center)
    res = _residuals(pose.matrix()[None], pose.position[None], points, pixels)[0]
    final = np.nonzero(res <= params.inlier_px)[0]
    if final.size < least:
        raise NoConsensusError("no consensus")
    return pose, final


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
    distance), and solve PnP+RANSAC on the lifted pairs: the query keypoints
    (n, 2) and their landmarks' positions (n, 3), row by row in landmark id
    order, as `pnp_ransac` takes them. `model` is unused; it stays only
    because the benchmark's workloads pass it."""
    found = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]  # query feature, landmark, distance
    for vid, _score in ranked[:k]:
        view = map_views[vid]
        iq, iv = match_features(query, view, match_params)
        mapped = view.lid[iv] >= 0
        iq, iv = iq[mapped], iv[mapped]
        found.append((iq, view.lid[iv], row_norms(query.desc[iq] - view.desc[iv])[:, 0]))
    iq, lid, dist = (np.concatenate(x) for x in zip(*found))
    # each landmark's closest match, in id order; on a tie the first in rank,
    # then query-feature order, as lexsort is stable
    order = np.lexsort((dist, lid))
    first = order[np.diff(lid[order], prepend=-1) != 0]
    pixels, points = query.kp[iq[first]], landmarks.positions[lid[first]]
    return pnp_ransac(pixels, points, ransac_params)[0]


def pose_error(est: CameraPose, gt: CameraPose) -> PoseError:
    translation = float(np.linalg.norm(est.position - gt.position))
    rotation = quats.rotation_angle_deg(est.matrix() @ gt.matrix().T)
    return PoseError(translation=translation, rotation=rotation)


def localization_rate(errors: list[PoseError | None]) -> dict[str, float]:
    """Percentage localized at each of the `LEVELS`; None entries (queries
    the protocol failed on) count as failures at every level."""
    n = len(errors)
    out = {}
    for name, (max_t, max_r) in LEVELS.items():
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
