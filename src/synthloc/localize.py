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
from .worldgen import NEAR_PLANE, CameraIntrinsics, CameraPose, Landmarks, ViewImage, project, row_norms


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
    """The stacked, normalized direct linear transform for [R|t]: `b`
    problems of `m >= 6` points each, as (b, m, 3) points and (b, m, 2)
    normalized image coordinates. Returns the (b, 2m, 12) systems A, whose
    null vectors are the projections of the normalized points, and the
    (b, 4, 4) transforms T that undo the normalization: P = null(A) @ T.
    Each problem gets the same floating-point operations as a solve of its
    own, so a result does not depend on the other problems in the stack."""
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
    """[R|C] from (b, 3, 4) projections P ~ [R|t], of either sign and any
    scale: P's sign is flipped where det(P[:, :3]) < 0, and its left block is
    projected to the nearest rotation by an SVD. Returns the (b, 3, 3)
    world-to-camera rotations and the (b, 3) camera centers. Raises
    LinAlgError if any SVD in the stack fails."""
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
    `b` poses, given as (b, 3, 3) rotations and (b, 3) centers: a (b, n)
    array, inf where a point is not in front of the near plane. Called by
    `_hypothesis_masks` for a chunk of hypotheses and by `pnp_ransac` for
    its refit pose."""
    u, v, z = project(points3d, R, center, intr)
    with np.errstate(invalid="ignore"):
        res = np.hypot(u - pixels[:, 0], v - pixels[:, 1])
    return np.where(z > NEAR_PLANE, res, np.inf)


# Hypotheses solved per stacked DLT: large enough to amortize numpy's
# per-call overhead, small enough that a solve stopping early wastes little.
_CHUNK = 32


def _draw_samples(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """The (b, 6) array that b calls of `rng.choice(n, 6, replace=False)`
    stack to, from one `rng.integers` call that leaves `rng` in the same state.

    numpy's `choice` leaves Floyd's sampling (Bentley & Floyd, CACM 1987) only
    above n = 10,000 and for more than n/50 values, so for six it is Floyd's
    at every n: column k takes a draw in [0, n-6+k], or n-6+k if an earlier
    column already holds that draw. A shuffle then swaps column i with
    a draw in [0, i] for i = 5, ..., 1. Each of those eleven steps takes one
    bounded draw from the generator, and `integers` over an array of bounds
    takes the same bounded draws in array order, so one call over b rows of
    the eleven bounds gives every draw of the b calls. Both steps then run on
    the columns of all b rows at once."""
    highs = np.array([*range(n - 6, n), 5, 4, 3, 2, 1])
    draws = rng.integers(0, highs, size=(b, 11), endpoint=True).T
    picks = draws[:6].copy()
    for k in range(1, 6):
        picks[k][(picks[:k] == picks[k]).any(axis=0)] = n - 6 + k
    rows = np.arange(b)
    for i, j in zip(range(5, 0, -1), draws[6:]):
        picks[i], picks[j, rows] = picks[j, rows], picks[i].copy()
    return picks.T


# How far below a hypothesis's smallest eigenvalue `_null_vectors` shifts,
# as a fraction of its largest: 64 ulps of ‖AᵀA‖.
_SHIFT = 64 * np.finfo(float).eps


def _null_vectors(M: np.ndarray) -> np.ndarray:
    """Eigenvectors of the smallest eigenvalues λ₁ of the (b, 12, 12)
    matrices M = AᵀA, each of arbitrary sign and scale, as (b, 12, 1).

    They are found the way LAPACK's xSTEIN finds an eigenvector: from the
    eigenvalues alone (`eigvalsh`, cheaper than `eigh` and than A's SVD),
    by one step of inverse iteration, one solve of (M - σI) x = 1 (Golub &
    Van Loan, Matrix Computations, §8.2.2). The shift σ = λ₁ - _SHIFT·λ₁₂
    lies a few ulps of ‖M‖ = λ₁₂ below λ₁, past the rounding of the computed
    λ₁, so M - σI stays positive definite; at σ = λ₁ itself the solve meets
    exactly singular matrices. The step leaves x off the eigenvector v by
    about _SHIFT·‖M‖ / (λ₂ - λ₁) · ‖1‖ / |1·v| in direction: the order of
    `eigh`'s own error, unless 1 is nearly orthogonal to v. Where λ₁ and λ₂
    nearly coincide v is ill-defined for both solvers. Each matrix gets its
    own `eigvalsh` and solve, so a result does not depend on the others in
    the stack. Raises LinAlgError as `eigh` does, on a NaN entry."""
    w = np.linalg.eigvalsh(M)
    shift = w[:, 0] - _SHIFT * w[:, -1]
    # a (b, 12, 1) right-hand side: a stack of columns in every numpy
    return np.linalg.solve(M - shift[:, None, None] * np.eye(12), np.ones((len(M), 12, 1)))


def _hypothesis_masks(
    samples: np.ndarray,
    points: np.ndarray,
    norm_xy: np.ndarray,
    pixels: np.ndarray,
    intr: CameraIntrinsics,
    inlier_px: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (b, n) inlier masks of the (b, 6) sampled hypotheses, in order, and
    their (b,) inlier counts; a hypothesis whose DLT fails counts -1. A failing
    stack is redone one at a time.

    A hypothesis's DLT null vector is the eigenvector of AᵀA with the
    smallest eigenvalue, which is the right singular vector of A's smallest
    singular value (Hartley & Zisserman, Multiple View Geometry, 2nd ed.,
    §4.1 and A5.3); `_null_vectors` takes it by one shifted inverse-iteration
    step from `eigvalsh`, and `_rt_from_projection` ignores its sign and
    scale. Every step runs once per matrix, so a hypothesis's mask does not
    depend on the others in its stack. On every tested hypothesis the mask
    equals that of the null vector from A's SVD; only one whose two smallest
    eigenvalues nearly coincide, so that no null vector is well defined,
    could get another."""
    try:
        A, T = _dlt_system(points[samples], norm_xy[samples])
        x = _null_vectors(A.transpose(0, 2, 1) @ A)
        R, center = _rt_from_projection(x.reshape(-1, 3, 4) @ T)
    except np.linalg.LinAlgError:
        if len(samples) == 1:
            return np.zeros((1, len(points)), dtype=bool), np.array([-1])
        parts = [
            _hypothesis_masks(sample[None], points, norm_xy, pixels, intr, inlier_px) for sample in samples
        ]
        return np.concatenate([m for m, _ in parts]), np.concatenate([c for _, c in parts])
    masks = _residuals(R, center, points, pixels, intr) <= inlier_px
    return masks, np.count_nonzero(masks, axis=1)


def pnp_ransac(
    corr_2d3d: list[tuple[np.ndarray, np.ndarray]],
    intrinsics: CameraIntrinsics,
    params: RansacParams,
) -> tuple[CameraPose, list[int]]:
    """RANSAC over 6-point DLT pose hypotheses with a full-inlier DLT refit.

    Returns the refit pose and the inlier indices under it. Raises
    InsufficientCorrespondencesError below 6 points and NoConsensusError when
    no hypothesis reaches least = max(min_inliers, 6) inliers, without drawing
    any when there are fewer than least points. Deterministic per seed.

    A solve draws at most start = bound(C(least, 6) / C(n, 6)) hypotheses,
    bound(p) = min(iterations, max(1, ceil(log(1 - confidence) / log(1 - p))))
    being the draws that take a sample of probability p with probability
    confidence. Six distinct points lie inside a given least with probability
    C(least, 6) / C(n, 6), so a solve without consensus ends once a consensus
    of least inliers, had one existed, would have had a sample drawn from it
    alone. Each new best count c sets the stop to
    min(start, bound((c / n)**6)), the standard adaptive stop capped at start.

    Hypotheses are drawn and solved in chunks of at most _CHUNK, never more
    than the remaining budget, but the result is that of drawing them one at
    a time with `rng.choice(n, 6, replace=False)`. A chunk's samples come
    from one `rng.integers` call (`_draw_samples`): each `choice` call is
    eleven bounded draws (Floyd's sampling, then a shuffle), and one call over
    the chunk's bounds takes the same draws in the same order, so the samples
    and the generator's state equal those of the serial calls. The chunk is
    walked in draw order with the strict best-count update and the adaptive
    stop. Hypotheses drawn past the stopping point are discarded; the
    generator is local to the call. If a chunk's stacked solve fails, its
    hypotheses are solved one at a time, and each one that fails still
    counts as an iteration.

    A hypothesis only feeds an inlier mask, so it takes its DLT null vector
    from AᵀA: its smallest eigenvalue from `eigvalsh`, then one step of
    inverse iteration shifted a few ulps of ‖AᵀA‖ below it, which keeps the
    solve's matrix positive definite (`_null_vectors`). The all-inlier refit,
    whose pose is returned, takes its null vector from the SVD of its tall
    A, whose condition number the normal equations would square. On every
    tested instance the outcome equals that of a serial loop solving each
    hypothesis through the SVD. Where A's two smallest singular values nearly
    coincide, the null vector is ill-defined and the solvers can give a
    hypothesis different masks (its poses are then junk); an outcome would
    differ only if such a hypothesis set or lost the best count.
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

    log_miss = np.log(max(1.0 - params.confidence, 1e-12))

    def bound(p: float) -> int:
        denom = np.log(max(1.0 - p, 1e-12))
        if denom == 0.0:  # p is below float resolution: no stop short of the budget
            return params.iterations
        return max(1, min(params.iterations, int(np.ceil(log_miss / denom))))

    start = bound(math.comb(least, 6) / math.comb(n, 6))
    rng = np.random.default_rng(params.seed)
    best_count = 0
    best_mask: np.ndarray | None = None
    needed = start
    it = 0
    while it < needed:
        b = min(_CHUNK, needed - it)
        samples = _draw_samples(rng, n, b)
        masks, counts = _hypothesis_masks(samples, points, norm_xy, pixels, intrinsics, params.inlier_px)
        for h, count in enumerate(counts.tolist()):
            it += 1
            if count > best_count:
                best_count = count
                best_mask = masks[h]
                needed = min(start, bound((count / n) ** 6))
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
