"""Retrieval backends: exhaustive cosine search over aggregated descriptors,
and a simplified selective match kernel (ASMK) over binarized per-cell
residuals of projected local features.

ASMK signatures use a dense layout. A view's signature over a C-cell codebook
at embedding width e is a `(C, e)` int8 matrix of signs in {-1, 0, +1}. A
cell is occupied when its row is non-zero. `build_index` stacks the map
views into an `(n, C, e)` sign tensor with an `(n, C)` occupancy mask, the
`(n, C)` non-zero counts per cell and the `(n,)` occupied-cell counts.
`retrieve` then scores a query against all n views in one call of
`_asmk_scores`. `asmk_signs` gives a view's `(C, e)` signature, and
`asmk_score(a, b)` is the same kernel on one pair of such arrays. The
pipeline runs on the defaults: 10 k-means iterations, and the selective
match kernel at its published setting, exponent 3 and threshold 0 (Tolias,
Avrithis & Jegou, ICCV 2013).

Invariant: every score is bit-identical to the per-cell sequential sum

    total = 0.0
    for each cell c occupied in both, in ascending order:
        u = dot_c / sqrt(nnz_a,c * nnz_b,c)
        total += u ** 3   for u > 0
    score = total / sqrt(|A| * |B|)

with integer dot products and counts, and Python's float `**`. The dot
products and counts are exact, and `sqrt` and float64 division are
correctly rounded. So the score is exactly symmetric, and the self-score of
a non-empty signature is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingModel, aggregate
from .worldgen import ViewImage, row_norms, sq_distances

RankedList = list[tuple[int, float]]  # (view_id, score), descending score
BACKENDS = ("global_cosine", "asmk")
_EXPONENT = 3.0  # the match kernel's selectivity exponent


@dataclass(frozen=True)
class DenseSignatures:
    """n signatures over one C-cell codebook, stacked in the dense layout."""

    signs: np.ndarray  # (n, C, e) int8
    occupied: np.ndarray  # (n, C) bool
    nnz: np.ndarray  # (n, C) non-zero signs per cell
    cells: np.ndarray  # (n,) occupied cells per signature

    @classmethod
    def stack(cls, signs: list[np.ndarray]) -> DenseSignatures:
        stacked = np.stack(signs)
        nnz = np.count_nonzero(stacked, axis=2)
        occupied = nnz > 0
        return cls(stacked, occupied, nnz, np.count_nonzero(occupied, axis=1))


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = sq_distances(
        vectors, np.sum(vectors * vectors, axis=1), centroids, np.sum(centroids * centroids, axis=1)
    )
    return np.argmin(d2, axis=1)


def train_codebook(vectors: np.ndarray, c: int, iters: int = 10, seed: int = 0) -> np.ndarray:
    """The `(C, e)` centroids of k-means with k-means++ seeding and a fixed
    iteration count. A run of `iters` iterations continues the run of
    `iters - 1`.

    Empty clusters are re-seeded from the point farthest from its centroid,
    which cannot increase the within-cluster SSE.
    """
    vectors = np.asarray(vectors, dtype=float)
    if c < 1:
        raise ValueError("cluster count must be >= 1")
    if vectors.shape[0] < c:
        raise ValueError(f"too few vectors: {vectors.shape[0]} < {c}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((c, vectors.shape[1]))
    first = int(rng.integers(vectors.shape[0]))
    centroids[0] = vectors[first]
    d2 = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for i in range(1, c):
        total = float(d2.sum())
        if total == 0.0:
            centroids[i] = vectors[int(rng.integers(vectors.shape[0]))]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, vectors.shape[0] - 1)
            centroids[i] = vectors[idx]
        d2 = np.minimum(d2, np.sum((vectors - centroids[i]) ** 2, axis=1))

    for _ in range(iters):
        labels = _assign(vectors, centroids)
        for k in range(c):
            members = vectors[labels == k]
            if members.shape[0] == 0:
                res = np.sum((vectors - centroids[labels]) ** 2, axis=1)
                far = int(np.argmax(res))
                centroids[k] = vectors[far]
                labels[far] = k
            else:
                centroids[k] = members.mean(axis=0)
    return centroids


def asmk_signs(view: ViewImage, model: EmbeddingModel, codebook: np.ndarray) -> np.ndarray:
    """`(C, e)` int8 signs of the per-cell residual sums of a view's
    projected features over the `(C, e)` centroids `codebook`. Cells without
    features, and cells whose residual sum cancels to zero, keep a zero
    row."""
    z = view.desc @ model.projection.T
    labels = _assign(z, codebook)
    # np.add.at adds each cell's rows in row order, at every e
    totals = np.zeros(codebook.shape)
    np.add.at(totals, labels, z - codebook[labels])
    norms = row_norms(totals)
    kept = norms[:, 0] > 0.0
    signs = np.zeros(codebook.shape, dtype=np.int8)
    signs[kept] = np.sign(totals[kept] / norms[kept])
    return signs


def _selectivity(u: np.ndarray) -> np.ndarray:
    """u ** 3 where u > 0, else +0.0, elementwise. Python's float `**` runs
    once per distinct u: `np.power` rounds some u ** 3 differently."""
    values, inverse = np.unique(u, return_inverse=True)
    table = [x ** _EXPONENT if x > 0.0 else 0.0 for x in values.tolist()]
    return np.array(table, dtype=float)[inverse]


def _asmk_scores(query: np.ndarray, db: DenseSignatures) -> np.ndarray:
    """Scores of one `(C, e)` query signature against each signature of
    `db`: the sum, in ascending cell order, of the selectivity-weighted
    cosine of the shared cells' sign vectors, normalized by the geometric
    mean of the occupied-cell counts."""
    if query.shape != db.signs.shape[1:]:
        raise ValueError("codebook mismatch")
    q_nnz = np.count_nonzero(query, axis=1)
    shared = (q_nnz > 0) & db.occupied
    # int64 dot products of at most e terms of +-1 cannot overflow
    dot = np.einsum("ce,nce->nc", query, db.signs, dtype=np.int64)[shared]
    u = dot / np.sqrt((q_nnz * db.nnz)[shared])
    # every term is >= +0.0, so the sum may start from the first; cells not
    # shared add an exact +0.0, and cumsum adds left to right
    terms = np.zeros((len(db.cells), query.shape[0]))
    terms[shared] = _selectivity(u)
    total = np.cumsum(terms, axis=1)[:, -1]
    norm = np.sqrt(np.count_nonzero(q_nnz) * db.cells)
    return np.divide(total, norm, out=np.zeros_like(total), where=norm > 0)


def asmk_score(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the selectivity-weighted cosine of the shared-cell sign vectors
    of two `(C, e)` signatures, normalized by the geometric mean of the
    occupied-cell counts."""
    return float(_asmk_scores(a, DenseSignatures.stack([b]))[0])


@dataclass
class RetrievalIndex:
    view_ids: list[int]
    embeddings: np.ndarray  # (n, e), unit rows
    signatures: DenseSignatures | None = None  # in view_ids order
    codebook: np.ndarray | None = None  # (C, e) centroids


def build_index(
    views: list[ViewImage], model: EmbeddingModel, codebook: np.ndarray | None = None
) -> RetrievalIndex:
    ids = [v.id for v in views]
    emb = np.array([aggregate(v, model) for v in views])
    sigs = None
    if codebook is not None:
        sigs = DenseSignatures.stack([asmk_signs(v, model, codebook) for v in views])
    return RetrievalIndex(view_ids=ids, embeddings=emb, signatures=sigs, codebook=codebook)


def retrieve(
    query: ViewImage, index: RetrievalIndex, model: EmbeddingModel, backend: str, k: int
) -> RankedList:
    """Top-k database views by `backend`, one of `BACKENDS`: the cosine of
    aggregated descriptors, or the match kernel at its published setting.
    An exhaustive scan, with ties broken by ascending view id."""
    if not index.view_ids:
        raise ValueError("empty database")
    if k < 1:
        raise ValueError("k must be >= 1")
    if backend == "global_cosine":
        fq = aggregate(query, model)
        scores = index.embeddings @ fq
    elif backend == "asmk":
        if index.signatures is None or index.codebook is None:
            raise ValueError("index has no match-kernel signatures")
        signs = asmk_signs(query, model, index.codebook)
        scores = _asmk_scores(signs, index.signatures)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    order = sorted(range(len(index.view_ids)), key=lambda i: (-float(scores[i]), index.view_ids[i]))
    return [(index.view_ids[i], float(scores[i])) for i in order[:k]]
