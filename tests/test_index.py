import numpy as np
import pytest

from synthloc.embed import EmbeddingModel, aggregate, init_model
from synthloc.index import (
    _selectivity,
    asmk_score,
    asmk_signs,
    build_index,
    retrieve,
    train_codebook,
)
from synthloc.worldgen import ViewImage

from conftest import make_view


# ---------------------------------------------------------------- codebook


def test_codebook_single_cluster_is_mean():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((50, 4))
    cb = train_codebook(vectors, c=1, iters=5, seed=0)
    assert np.allclose(cb[0], vectors.mean(axis=0), atol=1e-12)


def test_codebook_c_equals_n_permutes_inputs():
    rng = np.random.default_rng(1)
    vectors = rng.standard_normal((8, 4))
    cb = train_codebook(vectors, c=8, iters=5, seed=3)
    got = sorted(map(tuple, np.round(cb, 9)))
    want = sorted(map(tuple, np.round(vectors, 9)))
    assert got == want


def test_codebook_too_few_vectors():
    with pytest.raises(ValueError, match="too few vectors"):
        train_codebook(np.ones((3, 4)), c=4)


def test_codebook_sse_monotone_and_beats_random():
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((100, 6))
    # a run of i iterations continues the run of i - 1, so the runs of 1 to
    # 10 iterations trace one run's SSE
    sse = []
    for iters in range(1, 11):
        centroids = train_codebook(vectors, c=4, iters=iters, seed=0)
        sse.append(float(((vectors[:, None, :] - centroids[None]) ** 2).sum(axis=2).min(axis=1).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))
    # random assignment oracle: mean SSE over random 4-way partitions
    rand_sses = []
    for t in range(10):
        labels = np.random.default_rng(t).integers(0, 4, size=100)
        total = 0.0
        for k in range(4):
            members = vectors[labels == k]
            if len(members):
                total += float(np.sum((members - members.mean(axis=0)) ** 2))
        rand_sses.append(total)
    assert sse[-1] <= min(rand_sses)


def test_codebook_deterministic():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((60, 4))
    a = train_codebook(vectors, c=5, iters=8, seed=11)
    b = train_codebook(vectors, c=5, iters=8, seed=11)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- signatures


def _model(d=8, e=4, seed=0):
    return init_model(d, e, seed)


def dense(cells, n_cells, e):
    """The (n_cells, e) int8 signature whose rows are `cells` by cell id and
    zero elsewhere."""
    signs = np.zeros((n_cells, e), dtype=np.int8)
    for cell, vec in cells.items():
        signs[cell] = vec
    return signs


def cells_of(signs):
    """The non-zero rows of a signature, by cell id in ascending order."""
    return {int(cell): signs[cell] for cell in np.flatnonzero(signs.any(axis=1))}


def test_asmk_single_feature_sign():
    rng = np.random.default_rng(4)
    view = make_view(rng, 1, 8)
    model = _model()
    cb = np.zeros((1, 4))
    sig = asmk_signs(view, model, cb)
    z = model.projection @ view.desc[0]
    assert sig.dtype == np.int8 and sig.shape == (1, 4)
    assert np.array_equal(sig[0], np.sign(z / np.linalg.norm(z)).astype(np.int8))


def test_asmk_cancellation_drops_cell():
    model = EmbeddingModel(np.eye(4, 8))
    desc = np.zeros(8)
    desc[0] = 1.0
    view = make_view(np.random.default_rng(5), 1, 8)
    v = ViewImage(0, view.pose, view.intrinsics, np.zeros((2, 2)), np.stack([desc, -desc]), [-1, -1])
    cb = np.zeros((1, 4))
    sig = asmk_signs(v, model, cb)
    assert sig.shape == (1, 4) and not sig.any()


def test_asmk_signs_step_by_step_oracle():
    rng = np.random.default_rng(6)
    view = make_view(rng, 12, 8)
    model = _model(seed=2)
    vectors = view.descriptors() @ model.projection.T
    cb = train_codebook(vectors, c=3, iters=5, seed=0)
    sig = cells_of(asmk_signs(view, model, cb))

    d2 = ((vectors[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    expected = {}
    for cell in sorted(set(labels)):
        total = (vectors[labels == cell] - cb[cell]).sum(axis=0)
        n = np.linalg.norm(total)
        if n > 0:
            expected[int(cell)] = np.sign(total / n).astype(np.int8)
    assert set(sig) == set(expected)
    for cell in expected:
        assert np.array_equal(sig[cell], expected[cell])


def test_asmk_self_score_is_one():
    rng = np.random.default_rng(7)
    view = make_view(rng, 15, 8)
    model = _model(seed=3)
    vectors = view.descriptors() @ model.projection.T
    cb = train_codebook(vectors, c=4, iters=5, seed=0)
    sig = asmk_signs(view, model, cb)
    assert asmk_score(sig, sig) == 1.0


def test_asmk_disjoint_cells_score_zero():
    a = dense({0: [1, -1]}, 2, 2)
    b = dense({1: [1, 1]}, 2, 2)
    assert asmk_score(a, b) == 0.0


def test_asmk_score_brute_force_oracle():
    """Hand-evaluated kernel on two toy signatures, alpha=3, threshold=0."""
    a = dense({0: [1, 1, -1], 1: [1, -1, 1]}, 3, 3)
    b = dense({0: [1, -1, -1], 2: [1, 1, 1]}, 3, 3)
    # shared cell 0: u = (1 -1 +1)/3 = 1/3 ; sigma = (1/3)^3
    expected = ((1.0 / 3.0) ** 3) / np.sqrt(2 * 2)
    assert abs(asmk_score(a, b, alpha=3.0, sel_threshold=0.0) - expected) < 1e-12


def test_asmk_score_symmetric_and_self_maximal():
    rng = np.random.default_rng(8)
    model = _model(seed=4)
    views = [make_view(np.random.default_rng(900 + i), 12, 8, view_id=i) for i in range(10)]
    all_vectors = np.concatenate([v.descriptors() @ model.projection.T for v in views])
    cb = train_codebook(all_vectors, c=6, iters=5, seed=0)
    sigs = [asmk_signs(v, model, cb) for v in views]
    for i in range(len(sigs)):
        for j in range(len(sigs)):
            sij = asmk_score(sigs[i], sigs[j])
            sji = asmk_score(sigs[j], sigs[i])
            assert sij == sji
            if i != j:
                assert asmk_score(sigs[i], sigs[i]) >= sij - 1e-12


def test_asmk_threshold_monotone():
    rng = np.random.default_rng(9)
    model = _model(seed=5)
    a = make_view(np.random.default_rng(30), 12, 8)
    b = make_view(np.random.default_rng(31), 12, 8)
    vectors = np.concatenate([a.descriptors() @ model.projection.T, b.descriptors() @ model.projection.T])
    cb = train_codebook(vectors, c=4, iters=5, seed=0)
    sa, sb = asmk_signs(a, model, cb), asmk_signs(b, model, cb)
    # with non-negative thresholds every retained term is >= 0, so raising
    # the threshold can only drop mass
    prev = asmk_score(sa, sb, sel_threshold=0.0)
    for thr in (0.1, 0.25, 0.5, 0.75, 1.01):
        cur = asmk_score(sa, sb, sel_threshold=thr)
        assert cur <= prev + 1e-12
        prev = cur


def test_asmk_dim_mismatch():
    a = dense({0: [1, 1]}, 1, 2)
    with pytest.raises(ValueError, match="codebook mismatch"):
        asmk_score(a, dense({0: [1, 1, 1]}, 1, 3))
    with pytest.raises(ValueError, match="codebook mismatch"):
        asmk_score(a, dense({0: [1, 1]}, 2, 2))


# ---------------------------------------------------------------- retrieval


def test_duplicate_query_ranks_first_both_backends():
    model = _model(d=16, e=8, seed=6)
    views = [make_view(np.random.default_rng(40 + i), 15, 16, view_id=i) for i in range(12)]
    query = views[7]
    vectors = np.concatenate([v.descriptors() @ model.projection.T for v in views])
    cb = train_codebook(vectors, c=8, iters=5, seed=0)
    index = build_index(views, model, cb)
    for backend in ("global_cosine", "asmk"):
        ranked = retrieve(query, index, model, backend, k=5)
        assert ranked[0][0] == 7


def test_retrieve_k_larger_than_database():
    model = _model(d=16, e=8, seed=7)
    views = [make_view(np.random.default_rng(60 + i), 10, 16, view_id=i) for i in range(5)]
    index = build_index(views, model)
    ranked = retrieve(views[0], index, model, "global_cosine", k=50)
    assert len(ranked) == 5


def test_global_cosine_equals_brute_force():
    model = _model(d=16, e=8, seed=8)
    views = [make_view(np.random.default_rng(70 + i), 10, 16, view_id=i) for i in range(20)]
    query = make_view(np.random.default_rng(99), 10, 16, view_id=100)
    index = build_index(views, model)
    ranked = retrieve(query, index, model, "global_cosine", k=20)

    fq = aggregate(query, model)
    sims = [(float(np.dot(aggregate(v, model), fq)), v.id) for v in views]
    expected = [(vid, s) for s, vid in sorted(sims, key=lambda t: (-t[0], t[1]))]
    assert [vid for vid, _ in ranked] == [vid for vid, _ in expected]
    for (v1, s1), (v2, s2) in zip(ranked, expected):
        assert abs(s1 - s2) < 1e-12


def test_retrieve_ties_break_by_id():
    model = EmbeddingModel(np.eye(4, 8))
    base = make_view(np.random.default_rng(0), 5, 8, view_id=3)
    import dataclasses

    clones = [dataclasses.replace(base, id=i) for i in (9, 1, 5)]
    index = build_index(clones, model)
    ranked = retrieve(base, index, model, "global_cosine", k=3)
    assert [vid for vid, _ in ranked] == [1, 5, 9]


def test_global_cosine_invariant_to_database_rescaling():
    """Aggregates are unit-norm, so scaling every database descriptor by a
    positive constant leaves the ranking and scores unchanged."""
    import dataclasses

    model = _model(d=16, e=8, seed=10)
    views = [make_view(np.random.default_rng(200 + i), 10, 16, view_id=i) for i in range(15)]
    query = make_view(np.random.default_rng(299), 10, 16, view_id=50)
    scaled = [dataclasses.replace(v, desc=3.7 * v.desc) for v in views]
    r1 = retrieve(query, build_index(views, model), model, "global_cosine", k=15)
    r2 = retrieve(query, build_index(scaled, model), model, "global_cosine", k=15)
    assert [vid for vid, _ in r1] == [vid for vid, _ in r2]
    for (_, s1), (_, s2) in zip(r1, r2):
        assert abs(s1 - s2) < 1e-9


def test_retrieve_rejects_bad_backend(small_world):
    model = _model(d=16, e=8, seed=9)
    index = build_index(small_world.map_views[:4], model)
    with pytest.raises(ValueError):
        retrieve(small_world.map_views[0], index, model, "faiss", k=2)
    with pytest.raises(ValueError):
        retrieve(small_world.map_views[0], index, model, "global_cosine", k=0)


# ---------------------------------------------------------------- oracle
# Reference copies of the per-cell loop implementation that the dense ASMK
# kernel replaced. The kernel must give the same signatures, score bits and
# rankings.


def ref_assign(vectors, centroids):
    d2 = (
        np.sum(vectors * vectors, axis=1)[:, None]
        + np.sum(centroids * centroids, axis=1)[None, :]
        - 2.0 * (vectors @ centroids.T)
    )
    return np.argmin(d2, axis=1)


def ref_train_codebook(vectors, c, iters, seed):
    vectors = np.asarray(vectors, dtype=float)
    rng = np.random.default_rng(seed)
    centroids = np.empty((c, vectors.shape[1]))
    centroids[0] = vectors[int(rng.integers(vectors.shape[0]))]
    d2 = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for i in range(1, c):
        total = float(d2.sum())
        if total == 0.0:
            centroids[i] = vectors[int(rng.integers(vectors.shape[0]))]
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r)), vectors.shape[0] - 1)
            centroids[i] = vectors[idx]
        d2 = np.minimum(d2, np.sum((vectors - centroids[i]) ** 2, axis=1))
    for _ in range(iters):
        labels = ref_assign(vectors, centroids)
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


def ref_asmk_signs(view, model, centroids):
    z = view.descriptors() @ model.projection.T
    labels = ref_assign(z, centroids)
    cells = {}
    for cell in sorted(set(int(l) for l in labels)):
        total = (z[labels == cell] - centroids[cell]).sum(axis=0)
        norm = float(np.linalg.norm(total))
        if norm == 0.0:
            continue
        cells[cell] = np.sign(total / norm).astype(np.int8)
    return cells


def ref_selectivity(u, alpha, sel_threshold):
    if u < sel_threshold:
        return 0.0
    return float(np.sign(u) * abs(u) ** alpha)


def ref_asmk_score(a, b, alpha, sel_threshold):
    if not a or not b:
        return 0.0
    total = 0.0
    for cell in sorted(a.keys() & b.keys()):
        va, vb = a[cell], b[cell]
        dot = int(np.dot(va.astype(int), vb.astype(int)))
        nnz = np.count_nonzero(va) * np.count_nonzero(vb)
        total += ref_selectivity(dot / float(np.sqrt(nnz)), alpha, sel_threshold)
    return total / float(np.sqrt(len(a) * len(b)))


def ref_retrieve(query, views, model, centroids, k, alpha, sel_threshold):
    sig_q = ref_asmk_signs(query, model, centroids)
    scores = [
        ref_asmk_score(sig_q, ref_asmk_signs(v, model, centroids), alpha, sel_threshold)
        for v in views
    ]
    order = sorted(range(len(views)), key=lambda i: (-scores[i], views[i].id))
    return [(views[i].id, scores[i]) for i in order[:k]]


def bits(ranked):
    return [(vid, np.float64(s).tobytes()) for vid, s in ranked]


def random_cells(rng, n_cells, e, max_occupied, p_zero):
    cells = {}
    p = [(1 - p_zero) / 2, p_zero, (1 - p_zero) / 2]
    for cell in rng.choice(n_cells, size=int(rng.integers(0, max_occupied + 1)), replace=False):
        vec = np.zeros(e, dtype=np.int8)
        while not vec.any():
            vec = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=e, p=p)
        cells[int(cell)] = vec
    return cells


# alpha 1000 underflows |u|^alpha to a signed zero for every |u| < 1
KERNEL_PARAMS = [(3.0, 0.0), (1.0, 0.0), (3.0, 0.3), (1.0, -0.4), (3.0, -1.0), (1000.0, -1.0)]


def test_train_codebook_matches_reference():
    rng = np.random.default_rng(20)
    for n, e, c, iters in ((60, 4, 5, 6), (40, 8, 12, 4), (9, 3, 9, 3), (30, 1, 4, 5)):
        vectors = rng.standard_normal((n, e))
        # repeated rows leave clusters empty, which re-seeds them
        vectors[n // 2 :] = vectors[0]
        seed = int(rng.integers(100))
        got = train_codebook(vectors, c, iters, seed)
        assert got.tobytes() == ref_train_codebook(vectors, c, iters, seed).tobytes()


def test_asmk_signs_matches_reference():
    """Signature cells and sign bytes equal the per-cell loop's, including
    e = 1 and a cell whose residuals cancel."""
    rng = np.random.default_rng(21)
    for d, e, c in ((8, 1, 3), (8, 4, 6), (32, 32, 16), (64, 64, 8)):
        model = init_model(d, e, seed=int(rng.integers(100))) if e < d else EmbeddingModel(np.eye(d))
        views = [make_view(rng, int(rng.integers(1, 40)), d, view_id=i) for i in range(6)]
        vectors = np.concatenate([v.descriptors() @ model.projection.T for v in views])
        cb = train_codebook(vectors, c, iters=4, seed=0)
        for v in views:
            sig = asmk_signs(v, model, cb)
            want = ref_asmk_signs(v, model, cb)
            assert sig.dtype == np.int8 and sig.shape == (c, e)
            assert sig.tobytes() == dense(want, c, e).tobytes()

    model = EmbeddingModel(np.eye(4, 8))
    desc = np.zeros(8)
    desc[0] = 1.0
    base = make_view(rng, 3, 8)
    view = ViewImage(
        0, base.pose, base.intrinsics,
        np.vstack([np.zeros((2, 2)), base.kp]),
        np.vstack([desc, -desc, base.desc]),
        np.concatenate([[-1, -1], base.lid]),
    )
    cb = np.vstack([np.zeros(4), 10.0 * np.ones(4)])
    want = ref_asmk_signs(view, model, cb)
    assert asmk_signs(view, model, cb).tobytes() == dense(want, 2, 4).tobytes()


@pytest.mark.parametrize("alpha,sel_threshold", KERNEL_PARAMS)
def test_asmk_score_matches_reference(alpha, sel_threshold):
    """Score bits equal the per-cell sequential sum on random signatures:
    empty, disjoint and overlapping cell sets, zero sign entries, and widths
    up to e = 130, where an int8 dot product would wrap (an int8 product of
    the non-zero counts already wraps from e = 12)."""
    rng = np.random.default_rng(22)
    for e in (1, 2, 8, 33, 64, 130):
        for trial in range(40):
            p_zero = 0.1 if trial % 2 else 0.0
            a = random_cells(rng, 24, e, 20, p_zero)
            b = random_cells(rng, 24, e, 20, p_zero)
            disjoint = {cell + 24: vec for cell, vec in b.items()}
            for x, y in ((a, b), (a, a), (b, a), (a, disjoint), (a, {}), ({}, {})):
                got = asmk_score(dense(x, 48, e), dense(y, 48, e), alpha, sel_threshold)
                want = ref_asmk_score(x, y, alpha, sel_threshold)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
    one = np.ones(3, np.int8)
    # u = -1/3 weighs -0.0 at alpha 1000, and the sum starts from +0.0
    a, b = dense({0: one, 5: one}, 6, 3), dense({5: [-1, -1, 1]}, 6, 3)
    assert np.float64(asmk_score(a, b, 1000.0, -1.0)).tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("alpha,sel_threshold", KERNEL_PARAMS)
def test_retrieve_asmk_matches_reference(alpha, sel_threshold):
    """Full rankings and score bits equal the per-pair loop's, with tied
    scores from duplicated views broken by ascending view id."""
    import dataclasses

    rng = np.random.default_rng(23)
    for d, e, c in ((16, 8, 12), (64, 64, 24)):
        model = init_model(d, e, seed=1) if e < d else EmbeddingModel(np.eye(d))
        views = [make_view(rng, int(rng.integers(3, 30)), d, view_id=i) for i in range(14)]
        copies = ((2, 99), (5, 96), (5, 95))
        views += [dataclasses.replace(views[i], id=vid) for i, vid in copies]
        vectors = np.concatenate([v.descriptors() @ model.projection.T for v in views])
        cb = train_codebook(vectors, c, iters=4, seed=0)
        index = build_index(views, model, cb)
        queries = [views[5], make_view(rng, 25, d, view_id=500), make_view(rng, 1, d, view_id=501)]
        for q in queries:
            got = retrieve(q, index, model, "asmk", len(views), alpha, sel_threshold)
            want = ref_retrieve(q, views, model, cb, len(views), alpha, sel_threshold)
            assert bits(got) == bits(want)
    assert [vid for vid, _ in retrieve(views[5], index, model, "asmk", 3)] == [5, 95, 96]


@pytest.mark.parametrize("e", [8, 16, 32])
def test_selectivity_equals_python_pow_exhaustively(e):
    """Every cosine u = dot / sqrt(nnz_a * nnz_b) that e-dim sign vectors can
    give, computed array-wise as the kernel does, weighted as Python's scalar
    `**` weights it."""
    dot, nnz_a, nnz_b = np.meshgrid(
        np.arange(-e, e + 1), np.arange(1, e + 1), np.arange(1, e + 1), indexing="ij"
    )
    dot, nnz = dot.ravel(), (nnz_a * nnz_b).ravel()
    u = dot / np.sqrt(nnz)
    for alpha in (1.0, 3.0):
        got = _selectivity(u, alpha, -1.0)
        want = np.array(
            [ref_selectivity(x / float(np.sqrt(n)), alpha, -1.0) for x, n in zip(dot.tolist(), nnz.tolist())]
        )
        assert got.tobytes() == want.tobytes()
