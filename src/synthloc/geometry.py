"""Feature correspondence and the geometric consistency score that drives
variant filtering and sampling.

Scoring works on arrays. Within one `score_world_variants` call the `p`-side
arrays (descriptors, squared norms, landmark mask, keypoint neighbourhood
matrix) are computed once per view, and each variant is matched against `p`
with its own matmul: a GEMM stacked over the variants rounds differently, so
the scores would no longer equal `consistency_score` bit for bit. The
oriented pairs are fanned out over the CPUs (`fanout._fan_out`): each pair
is scored whole in one process, by the same code as on one CPU, so the
scores are the same bits at any CPU count."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import is_finite_number, require_number
from .fanout import _fan_out
from .worldgen import ViewImage, World, sq_distances


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
    """`kept` of the `original` (q, p) area-of-interest correspondences
    survive the variant; the score is their ratio."""

    kept: int
    original: int

    @property
    def value(self) -> float:
        return self.kept / self.original if self.original else 0.0


class _Side(NamedTuple):
    """What matching reads from a view: descriptors, their squared norms,
    the area-of-interest (landmark) mask and, for the scorer's `p` view, the
    neighbourhood matrix, whose entry (j, k) is True when keypoints j
    and k lie within `pixel_tol` of each other."""

    desc: np.ndarray
    sq: np.ndarray
    aoi: np.ndarray
    near: np.ndarray | None = None


def _side(view: ViewImage) -> _Side:
    desc = view.desc
    return _Side(desc, np.sum(desc * desc, axis=1), view.lid >= 0)


def _mutual_matches(a: _Side, b: _Side, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (ia, ib) of the mutual-nearest-neighbour matches between
    the descriptor rows of `a` and `b` that pass the two-sided ratio test.
    ia is ascending."""
    # squared distances are enough for ordering; ratio test uses true distances
    dist = np.sqrt(np.maximum(sq_distances(a.desc, a.sq, b.desc, b.sq), 0.0))
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
    return _mutual_matches(_side(a), _side(b), params.ratio)


def _p_side(view: ViewImage, pixel_tol: float) -> _Side:
    kp = view.kp
    # keypoints far apart may overflow to a distance of inf, which is not near
    with np.errstate(over="ignore"):
        near = np.linalg.norm(kp[None, :, :] - kp[:, None, :], axis=2) <= pixel_tol
    return _side(view)._replace(near=near)


def _aoi_targets(a: _Side, b: _Side, ratio: float) -> np.ndarray:
    """b-side indices of the (a, b) matches with a landmark at both ends."""
    ia, ib = _mutual_matches(a, b, ratio)
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
        return [ConsistencyScore(0, 0) for _ in q_variants]
    near = p.near[targets]
    scores = []
    for v in q_variants:
        kept = int(np.count_nonzero(near[:, _aoi_targets(v, p, ratio)].any(axis=1)))
        scores.append(ConsistencyScore(kept, original))
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


def validate_pair(score: ConsistencyScore, c_tau: float) -> bool:
    """Accept a synthetic pair when its survival ratio reaches `c_tau`."""
    return score.value >= c_tau


# Consistency scores keyed by (query id, positive id, prompt).
Scores = dict[tuple[int, int, str], ConsistencyScore]


def score_world_variants(
    world: World, variants: dict[int, list[ViewImage]], params: MatchParams
) -> Scores:
    """Consistency scores for every matching pair, both orientations, and
    every prompt, as `consistency_score` gives them.

    The `p`-side arrays of every map view are computed once, before the
    oriented pairs are fanned out over the CPUs with `_fan_out`; each
    process computes the variant arrays of the query views in its own share
    once, and the (q, p) correspondences once per oriented pair. The dict
    is built in the serial loop's order, so its items do not depend on the
    CPU count. Called from inside a share of another `_fan_out` call, it
    runs serially."""
    sides = {v.id: _p_side(v, params.pixel_tol) for v in world.map_views}
    chosen: dict[int, list[_Side]] = {}

    def score_pair(pair: tuple[int, int]) -> list[ConsistencyScore]:
        q_id, p_id = pair
        if q_id not in chosen:
            chosen[q_id] = [_side(v) for v in variants.get(q_id, [])]
        return _pair_scores(sides[q_id], sides[p_id], chosen[q_id], params.ratio)

    pairs = [(q, p) for a, b, _ in world.matching_pairs for q, p in ((a, b), (b, a))]
    scores: Scores = {}
    for (q_id, p_id), pair in zip(pairs, _fan_out(score_pair, pairs)):
        for v, score in zip(variants.get(q_id, []), pair):
            scores[(q_id, p_id, v.condition)] = score
    return scores
