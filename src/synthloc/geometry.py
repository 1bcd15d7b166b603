"""Feature correspondence, identity-transform verification, and the geometric
consistency score that drives variant filtering and sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .worldgen import ViewImage, World


@dataclass
class MatchParams:
    ratio: float = 0.9  # Lowe ratio, applied on both match directions
    pixel_tol: float = 2.0  # px, identity verification and score intersection key


@dataclass
class Correspondences:
    pairs: list[tuple[int, int]]  # (feature index in a, feature index in b)
    method: str = "mnn+ratio"

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class ConsistencyScore:
    value: float
    kept: int
    original: int

    @property
    def degenerate(self) -> bool:
        """True when the original pair had no correspondences at all."""
        return self.original == 0


def match_features(a: ViewImage, b: ViewImage, params: MatchParams) -> Correspondences:
    """Mutual-nearest-neighbor matches under a two-sided Lowe ratio test.

    The acceptance predicate is symmetric in (a, b), so pairs(a, b) equals
    the transpose of pairs(b, a). Ties break to the lowest feature index.
    """
    da, db = a.descriptors(), b.descriptors()
    if da.shape[0] == 0 or db.shape[0] == 0:
        raise ValueError("cannot match an empty view")
    # squared distances are enough for ordering; ratio test uses true distances
    d2 = np.maximum(
        np.sum(da * da, axis=1)[:, None] + np.sum(db * db, axis=1)[None, :] - 2.0 * (da @ db.T),
        0.0,
    )
    dist = np.sqrt(d2)

    nn_ab = np.argmin(dist, axis=1)
    nn_ba = np.argmin(dist, axis=0)

    na, nb = dist.shape
    if nb >= 2:
        two = np.partition(dist, 1, axis=1)[:, :2]
        ratio_a = two[:, 0] <= params.ratio * two[:, 1]
    else:
        ratio_a = np.ones(na, dtype=bool)
    if na >= 2:
        two = np.partition(dist, 1, axis=0)[:2, :]
        ratio_b = two[0, :] <= params.ratio * two[1, :]
    else:
        ratio_b = np.ones(nb, dtype=bool)

    mutual = nn_ba[nn_ab] == np.arange(na)
    keep = mutual & ratio_a & ratio_b[nn_ab]
    pairs = [(int(i), int(nn_ab[i])) for i in np.nonzero(keep)[0]]
    return Correspondences(pairs=pairs)


def verify_identity(
    corrs: Correspondences, a: ViewImage, b: ViewImage, pixel_tol: float
) -> Correspondences:
    """Keep the matches whose keypoints agree under the identity transform."""
    kp_a, kp_b = a.keypoints(), b.keypoints()
    kept = [
        (i, j)
        for (i, j) in corrs.pairs
        if np.linalg.norm(kp_a[i] - kp_b[j]) <= pixel_tol
    ]
    return Correspondences(pairs=kept, method=corrs.method + "+identity")


def area_of_interest(corrs: Correspondences, a: ViewImage, b: ViewImage) -> Correspondences:
    """Correspondences whose endpoints both lie in the co-observed scene,
    i.e. carry landmark ids; clutter matches are outside the area of
    interest."""
    la, lb = a.landmark_ids(), b.landmark_ids()
    kept = [(i, j) for (i, j) in corrs.pairs if la[i] >= 0 and lb[j] >= 0]
    return Correspondences(pairs=kept, method=corrs.method)


def _survival(
    c_qp: Correspondences, c_vp: Correspondences, kp_p: np.ndarray, pixel_tol: float
) -> ConsistencyScore:
    """Survival count shared by both scorers. A (q, p) correspondence
    survives when some (variant, p) correspondence has its p-side keypoint
    within `pixel_tol` of its own. `c_qp` must not be empty."""
    original = len(c_qp)
    if not c_vp.pairs:
        return ConsistencyScore(value=0.0, kept=0, original=original)
    kp_qp = kp_p[[j for (_, j) in c_qp.pairs]]
    kp_vp = kp_p[[j for (_, j) in c_vp.pairs]]
    dist = np.linalg.norm(kp_vp[None, :, :] - kp_qp[:, None, :], axis=2)  # |c_qp| x |c_vp|
    kept = int(np.count_nonzero(dist.min(axis=1) <= pixel_tol))
    return ConsistencyScore(value=kept / original, kept=kept, original=original)


def consistency_score(
    q: ViewImage, p: ViewImage, q_variant: ViewImage, params: MatchParams
) -> ConsistencyScore:
    """Fraction of the (q, p) area-of-interest correspondences that survive
    replacing q by its variant. Correspondences from the two matchings are
    identified through their p-side keypoints (p is the unaltered view in
    both)."""
    c_qp = area_of_interest(match_features(q, p, params), q, p)
    if not c_qp.pairs:
        return ConsistencyScore(value=0.0, kept=0, original=0)
    c_vp = area_of_interest(match_features(q_variant, p, params), q_variant, p)
    return _survival(c_qp, c_vp, p.keypoints(), params.pixel_tol)


THRESHOLD_MODES = ("relative", "absolute")


def validate_pair(score: ConsistencyScore, c_tau: float, mode: str = "relative") -> bool:
    """Accept a synthetic pair when enough correspondences survive.

    `relative` thresholds the survival ratio, `absolute` the surviving count.
    """
    if mode == "relative":
        return score.value >= c_tau
    if mode == "absolute":
        return score.kept >= c_tau
    raise ValueError(f"unknown threshold mode {mode!r}")


def self_consistency(x: ViewImage, x_variant: ViewImage, params: MatchParams) -> ConsistencyScore:
    """Identity-verified match rate of a view against its own variant,
    relative to the view's landmark-bearing features (clutter excluded)."""
    n_landmark = int(np.sum(x.landmark_ids() >= 0))
    if n_landmark == 0:
        return ConsistencyScore(value=0.0, kept=0, original=0)
    corrs = verify_identity(match_features(x, x_variant, params), x, x_variant, params.pixel_tol)
    kept = len(area_of_interest(corrs, x, x_variant).pairs)
    return ConsistencyScore(value=kept / n_landmark, kept=kept, original=n_landmark)


class ScoreStore:
    """Consistency scores keyed by (query id, positive id, prompt)."""

    def __init__(self) -> None:
        self._scores: dict[tuple[int, int, str], ConsistencyScore] = {}
        self._by_pair: dict[tuple[int, int], list[str]] | None = None

    def add(self, query_id: int, positive_id: int, prompt: str, score: ConsistencyScore) -> None:
        self._scores[(query_id, positive_id, prompt)] = score
        self._by_pair = None

    def get(self, query_id: int, positive_id: int, prompt: str) -> ConsistencyScore | None:
        return self._scores.get((query_id, positive_id, prompt))

    def for_pair(self, query_id: int, positive_id: int) -> list[tuple[str, ConsistencyScore]]:
        if self._by_pair is None:
            self._by_pair = {}
            for (q, p, prompt) in sorted(self._scores):
                self._by_pair.setdefault((q, p), []).append(prompt)
        prompts = self._by_pair.get((query_id, positive_id), [])
        return [(prompt, self._scores[(query_id, positive_id, prompt)]) for prompt in prompts]

    def items(self):
        return self._scores.items()

    def __len__(self) -> int:
        return len(self._scores)


def score_world_variants(
    world: World,
    variants: dict[int, list[ViewImage]],
    params: MatchParams,
    prompt_names: list[str] | None = None,
) -> ScoreStore:
    """Consistency scores for every matching pair, both orientations, and
    every prompt. The (q, p) correspondences are computed once per oriented
    pair and reused across prompts."""
    store = ScoreStore()
    by_id = {v.id: v for v in world.map_views}
    for a, b, _ in world.matching_pairs:
        for q_id, p_id in ((a, b), (b, a)):
            q, p = by_id[q_id], by_id[p_id]
            c_qp = area_of_interest(match_features(q, p, params), q, p)
            kp_p = p.keypoints()
            for variant in variants.get(q_id, []):
                prompt = variant.condition
                if prompt_names is not None and prompt not in prompt_names:
                    continue
                if not c_qp.pairs:
                    score = ConsistencyScore(0.0, 0, 0)
                else:
                    c_vp = area_of_interest(match_features(variant, p, params), variant, p)
                    score = _survival(c_qp, c_vp, kp_p, params.pixel_tol)
                store.add(q_id, p_id, prompt, score)
    return store
