"""Feature correspondence and the geometric consistency score that drives
variant filtering and sampling.

Scoring works on arrays. Within one `score_world_variants` call the `p`-side
arrays (descriptors, squared norms, landmark mask, keypoint neighbourhood
matrix) are computed once per view, and each variant is matched against `p`
with its own matmul: a GEMM stacked over the variants rounds differently, so
the scores would no longer equal `consistency_score` bit for bit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import is_finite_number, require_number
from .worldgen import ViewImage, World


@dataclass
class MatchParams:
    ratio: float = 0.9  # Lowe ratio, applied on both match directions
    pixel_tol: float = 2.0  # px, score intersection key

    def __post_init__(self) -> None:
        if not (is_finite_number(self.ratio) and 0 < self.ratio <= 1):
            raise ValueError(f"ratio must be a number in (0, 1], not {self.ratio!r}")
        require_number("pixel_tol", self.pixel_tol, 0)


@dataclass
class ConsistencyScore:
    value: float
    kept: int
    original: int


def _mutual_matches(
    da: np.ndarray, sa: np.ndarray, db: np.ndarray, sb: np.ndarray, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (ia, ib) of the mutual-nearest-neighbour matches between
    descriptor rows `da` and `db` that pass the two-sided ratio test; `sa`
    and `sb` are the rows' squared norms. ia is ascending."""
    # squared distances are enough for ordering; ratio test uses true distances
    dist = np.sqrt(np.maximum(sa[:, None] + sb[None, :] - 2.0 * (da @ db.T), 0.0))
    na, nb = dist.shape
    nn_ab = dist.argmin(axis=1)
    ia = np.flatnonzero(dist.argmin(axis=0)[nn_ab] == np.arange(na))
    ib = nn_ab[ia]
    # a mutual match is the minimum of its row and of its column; the
    # runner-up of each is the minimum once the match itself is masked
    best = dist[ia, ib]
    keep = np.ones(ia.size, dtype=bool)
    if nb >= 2:
        rows = dist[ia]
        rows[np.arange(ia.size), ib] = np.inf
        keep &= best <= ratio * rows.min(axis=1)
    if na >= 2:
        cols = dist[:, ib]
        cols[ia, np.arange(ia.size)] = np.inf
        keep &= best <= ratio * cols.min(axis=0)
    return ia[keep], ib[keep]


def match_features(
    a: ViewImage, b: ViewImage, params: MatchParams
) -> tuple[np.ndarray, np.ndarray]:
    """Mutual-nearest-neighbor matches under a two-sided Lowe ratio test, as
    index arrays (ia, ib) into a's and b's features, ia ascending.

    The acceptance predicate is symmetric in (a, b), so the matches of
    (a, b) are those of (b, a) transposed. Ties break to the lowest feature
    index.
    """
    da, db = a.descriptors(), b.descriptors()
    if da.shape[0] == 0 or db.shape[0] == 0:
        raise ValueError("cannot match an empty view")
    return _mutual_matches(
        da, np.sum(da * da, axis=1), db, np.sum(db * db, axis=1), params.ratio
    )


class _Side(NamedTuple):
    """What the scorer reads from a view it matches: descriptors, their
    squared norms, the area-of-interest (landmark) mask and, for a `p` view,
    the neighbourhood matrix, whose entry (j, k) is True when keypoints j
    and k lie within `pixel_tol` of each other."""

    desc: np.ndarray
    sq: np.ndarray
    aoi: np.ndarray
    near: np.ndarray | None = None


def _side(view: ViewImage) -> _Side:
    desc = view.descriptors()
    return _Side(desc, np.sum(desc * desc, axis=1), view.landmark_ids() >= 0)


def _p_side(view: ViewImage, pixel_tol: float) -> _Side:
    kp = view.keypoints()
    near = np.linalg.norm(kp[None, :, :] - kp[:, None, :], axis=2) <= pixel_tol
    return _side(view)._replace(near=near)


def _aoi_targets(a: _Side, b: _Side, ratio: float) -> np.ndarray:
    """b-side indices of the (a, b) matches with a landmark at both ends."""
    ia, ib = _mutual_matches(a.desc, a.sq, b.desc, b.sq, ratio)
    return ib[a.aoi[ia] & b.aoi[ib]]


def _pair_scores(q: _Side, p: _Side, q_variants: list[_Side], ratio: float) -> list[ConsistencyScore]:
    """Consistency scores of one oriented pair, one per variant of q.

    The (q, p) area-of-interest correspondences are matched once. A
    correspondence survives a variant when some (variant, p) one has its
    p-side keypoint within `pixel_tol` of its own, read off p's
    neighbourhood matrix."""
    targets = _aoi_targets(q, p, ratio)
    original = targets.size
    if original == 0:
        return [ConsistencyScore(value=0.0, kept=0, original=0) for _ in q_variants]
    near = p.near[targets]
    scores = []
    for v in q_variants:
        kept = int(np.count_nonzero(near[:, _aoi_targets(v, p, ratio)].any(axis=1)))
        scores.append(ConsistencyScore(value=kept / original, kept=kept, original=original))
    return scores


def consistency_score(
    q: ViewImage, p: ViewImage, q_variant: ViewImage, params: MatchParams
) -> ConsistencyScore:
    """Fraction of the (q, p) area-of-interest correspondences that survive
    replacing q by its variant. The correspondences of the two matchings are
    identified through their p-side keypoints (p is the unaltered view in
    both)."""
    (score,) = _pair_scores(
        _side(q), _p_side(p, params.pixel_tol), [_side(q_variant)], params.ratio
    )
    return score


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


class ScoreStore:
    """Consistency scores keyed by (query id, positive id, prompt)."""

    def __init__(self) -> None:
        self._scores: dict[tuple[int, int, str], ConsistencyScore] = {}

    def add(self, query_id: int, positive_id: int, prompt: str, score: ConsistencyScore) -> None:
        self._scores[(query_id, positive_id, prompt)] = score

    def get(self, query_id: int, positive_id: int, prompt: str) -> ConsistencyScore | None:
        return self._scores.get((query_id, positive_id, prompt))

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
    every prompt, as `consistency_score` gives them. Each view's and each
    variant's arrays are computed once per call, and the (q, p)
    correspondences once per oriented pair."""
    store = ScoreStore()
    sides = {v.id: _p_side(v, params.pixel_tol) for v in world.map_views}
    chosen: dict[int, tuple[list[str], list[_Side]]] = {}
    for a, b, _ in world.matching_pairs:
        for q_id, p_id in ((a, b), (b, a)):
            if q_id not in chosen:
                kept = [
                    v for v in variants.get(q_id, [])
                    if prompt_names is None or v.condition in prompt_names
                ]
                chosen[q_id] = ([v.condition for v in kept], [_side(v) for v in kept])
            prompts, q_variants = chosen[q_id]
            scores = _pair_scores(sides[q_id], sides[p_id], q_variants, params.ratio)
            for prompt, score in zip(prompts, scores):
                store.add(q_id, p_id, prompt, score)
    return store
