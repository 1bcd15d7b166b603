import numpy as np
import pytest

from synthloc.embed import (
    EmbeddingModel,
    TrainingTuple,
    _tuple_views,
    aggregate,
    aggregated_value_and_grad,
    average_models,
    multi_value_and_grad,
)
from synthloc.variants import apply_variant, identity_shift
from synthloc.worldgen import ViewImage

from conftest import make_view


def unit(v):
    return v / np.linalg.norm(v)


def make_store(rng, n_views, d, n_feats=5, with_variants=False, prompt="shiftA"):
    """Training views keyed by (view id, prompt): n_views originals and, if
    asked, one variant of each under `prompt`."""
    views = {(i, None): make_view(np.random.default_rng(rng.integers(1 << 30)), n_feats, d, view_id=i) for i in range(n_views)}
    if with_variants:
        for i in range(n_views):
            v = make_view(np.random.default_rng(rng.integers(1 << 30)), n_feats, d, view_id=i, condition=prompt)
            views[(i, prompt)] = v
    return views


# ---------------------------------------------------------------- aggregate


def test_aggregate_single_feature():
    rng = np.random.default_rng(0)
    view = make_view(rng, 1, 8)
    W = rng.standard_normal((4, 8))
    f = aggregate(view, EmbeddingModel(W))
    expected = unit(W @ view.desc[0])
    assert np.allclose(f, expected, atol=1e-12)


def test_aggregate_duplicate_features_idempotent():
    rng = np.random.default_rng(1)
    view = make_view(rng, 1, 8)
    twice = ViewImage(9, view.pose, view.intrinsics, view.kp[[0, 0]], view.desc[[0, 0]], view.lid[[0, 0]])
    W = rng.standard_normal((4, 8))
    model = EmbeddingModel(W)
    assert np.allclose(aggregate(view, model), aggregate(twice, model), atol=1e-12)


def test_aggregate_norm_weighted_mean_hand_computed():
    """5-feature toy view against a scalar-arithmetic recomputation."""
    rng = np.random.default_rng(2)
    view = make_view(rng, 5, 6)
    W = np.eye(3, 6)  # identity truncation
    zs = [W @ x for x in view.desc]
    ws = [np.linalg.norm(z) for z in zs]
    u = sum(w * z for w, z in zip(ws, zs)) / sum(ws)
    expected = u / np.linalg.norm(u)
    got = aggregate(view, EmbeddingModel(W))
    assert np.allclose(got, expected, atol=1e-12)


def test_aggregate_degenerate_zero_matrix():
    rng = np.random.default_rng(3)
    view = make_view(rng, 4, 8)
    f = aggregate(view, EmbeddingModel(np.zeros((4, 8))))
    assert np.array_equal(f, np.array([1.0, 0.0, 0.0, 0.0]))


def test_aggregate_feature_order_invariance():
    rng = np.random.default_rng(4)
    view = make_view(rng, 8, 8)
    shuffled = ViewImage(10, view.pose, view.intrinsics, view.kp[::-1], view.desc[::-1], view.lid[::-1])
    W = rng.standard_normal((4, 8))
    model = EmbeddingModel(W)
    assert np.allclose(aggregate(view, model), aggregate(shuffled, model), atol=1e-12)


def test_aggregate_scale_invariance():
    rng = np.random.default_rng(5)
    view = make_view(rng, 6, 8)
    W = rng.standard_normal((4, 8))
    f1 = aggregate(view, EmbeddingModel(W))
    f2 = aggregate(view, EmbeddingModel(3.7 * W))
    assert np.allclose(f1, f2, atol=1e-9)


# ---------------------------------------------------------------- losses


def contrastive_oracle(t, res, model, margin):
    """The plain contrastive loss written out from `aggregate`, in the
    kernels' summation order, as an independent reference."""
    q, p, *ns = _tuple_views(res, t)
    fq, fp = aggregate(q, model), aggregate(p, model)
    loss = float(np.dot(fq - fp, fq - fp))
    for n in ns:
        fn = aggregate(n, model)
        loss += max(0.0, margin - float(np.dot(fq - fn, fq - fn)))
    return loss


def fixed_embedding_views(embeddings):
    """Original views whose aggregate equals a fixed vector: a
    single-feature view with descriptor = embedding and W = identity."""
    return {
        (vid, None): ViewImage(vid, _POSE, _INTR, np.zeros((1, 2)), [np.asarray(vec, float)], [-1])
        for vid, vec in embeddings.items()
    }


from synthloc.worldgen import CameraIntrinsics, CameraPose

_INTR = CameraIntrinsics(100.0, np.array([50.0, 50.0]), (100, 100))
_POSE = CameraPose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def test_loss_contrastive_hand_value():
    """e=2: f(q)=(1,0), f(p)=(0,1), one negative (1,0), margin 0.7 -> 2.7."""
    emb = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 0.0]}
    res = fixed_embedding_views(emb)
    t = TrainingTuple(0, 1, [2])
    model = EmbeddingModel(np.eye(2))
    for value_and_grad in (multi_value_and_grad, aggregated_value_and_grad):
        loss = value_and_grad([t], res, model, 0.7)[0]
        assert abs(loss - 2.7) < 1e-12


def test_loss_contrastive_zero_when_satisfied():
    emb = {0: [1.0, 0.0], 1: [1.0, 0.0], 2: [-1.0, 0.0]}  # negative at distance^2=4
    res = fixed_embedding_views(emb)
    t = TrainingTuple(0, 1, [2])
    for value_and_grad in (multi_value_and_grad, aggregated_value_and_grad):
        assert value_and_grad([t], res, EmbeddingModel(np.eye(2)), 0.7)[0] == 0.0


def test_loss_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        res = make_store(rng, 6, 8)
        t = TrainingTuple(0, 1, [2, 3, 4])
        model = EmbeddingModel(rng.standard_normal((4, 8)))
        assert aggregated_value_and_grad([t], res, model, 0.7)[0] >= 0.0


def test_loss_multi_reduces_to_contrastive_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(50):
        res = make_store(rng, 6, 8)
        t = TrainingTuple(0, 1, [2, 3], weight=1.0)
        model = EmbeddingModel(rng.standard_normal((4, 8)))
        loss_m, grad_m = multi_value_and_grad([t], res, model, 0.7)
        loss_a, grad_a = aggregated_value_and_grad([t], res, model, 0.7)
        assert loss_m == loss_a == contrastive_oracle(t, res, model, 0.7)
        assert np.array_equal(grad_m, grad_a)


def test_loss_multi_zero_weight():
    emb = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [-1.0, 0.0]}
    res = fixed_embedding_views(emb)
    t = TrainingTuple(0, 1, [2], weight=0.0)
    t.weight = 0.0
    assert multi_value_and_grad([t], res, EmbeddingModel(np.eye(2)), 0.7)[0] == 0.0


def test_loss_multi_hand_summed_k2():
    emb = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 0.0], 3: [0.6, 0.8], 4: [1.0, 0.0]}
    res = fixed_embedding_views(emb)
    t1 = TrainingTuple(0, 1, [2], weight=1.0)
    t2 = TrainingTuple(3, 1, [4], weight=0.5)
    model = EmbeddingModel(np.eye(2))
    # tuple 1: 1.0*2 + max(0, 0.7-0) = 2.7
    # tuple 2: d(q,p)^2 = (0.6)^2+(0.2)^2 = 0.4 -> 0.5*0.4 = 0.2
    #          d(q,n)^2 = (0.4)^2+(0.8)^2 = 0.8 -> hinge 0 ... wait: (0.6-1)^2+(0.8-0)^2 = 0.16+0.64 = 0.8 -> 0
    # total = (2.7 + 0.2) / 2 = 1.45
    got = multi_value_and_grad([t1, t2], res, model, 0.7)[0]
    assert abs(got - 1.45) < 1e-12


def test_loss_multi_empty_set():
    with pytest.raises(ValueError, match="empty tuple set"):
        multi_value_and_grad([], None, EmbeddingModel(np.eye(2)), 0.7)


def test_loss_aggregated_k0_reduces_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(50):
        res = make_store(rng, 6, 8)
        t = TrainingTuple(0, 1, [2, 3])
        model = EmbeddingModel(rng.standard_normal((4, 8)))
        loss = aggregated_value_and_grad([t], res, model, 0.7)[0]
        assert loss == contrastive_oracle(t, res, model, 0.7)


def test_loss_aggregated_identity_variants_equal_contrastive():
    rng = np.random.default_rng(9)
    res = {(i, None): make_view(np.random.default_rng(50 + i), 5, 8, view_id=i) for i in range(5)}
    for i in range(5):
        res[(i, "same")] = apply_variant(res[(i, None)], identity_shift("same", 8), seed=0)
    t0 = TrainingTuple(0, 1, [2, 3])
    t1 = TrainingTuple(0, 1, [2, 3], prompt="same", weight=1.0)
    model = EmbeddingModel(rng.standard_normal((4, 8)))
    agg = aggregated_value_and_grad([t0, t1], res, model, 0.7)[0]
    single = aggregated_value_and_grad([t0], res, model, 0.7)[0]
    assert abs(agg - single) < 1e-9


def test_loss_aggregated_k1_hand_computed():
    emb = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 0.0], 10: [0.0, 1.0], 12: [-1.0, 0.0]}

    res = fixed_embedding_views(emb)
    # under prompt "t", view i looks like original view i + 10
    res[(0, "t")], res[(2, "t")] = res[(10, None)], res[(12, None)]
    t0 = TrainingTuple(0, 1, [2])
    t1 = TrainingTuple(0, 1, [2], prompt="t")
    model = EmbeddingModel(np.eye(2))
    # phi(Q) = normalize((1,0)+(0,1)) = (s,s) with s = 1/sqrt(2)
    # phi(P) = (0,1) ; phi(N) = normalize((1,0)+(-1,0)) -> degenerate -> e1
    s = 1 / np.sqrt(2)
    d_qp = (s - 0) ** 2 + (s - 1) ** 2
    d_qn = (s - 1) ** 2 + (s - 0) ** 2
    expected = d_qp + max(0.0, 0.7 - d_qn)
    got = aggregated_value_and_grad([t0, t1], res, model, 0.7)[0]
    assert abs(got - expected) < 1e-12


def test_loss_aggregated_mismatched_family():
    rng = np.random.default_rng(10)
    res = make_store(rng, 6, 8, with_variants=True)
    t0 = TrainingTuple(0, 1, [2, 3])
    bad = TrainingTuple(0, 4, [2, 3], prompt="shiftA")
    with pytest.raises(ValueError, match="mismatched tuple family"):
        aggregated_value_and_grad([t0, bad], res, EmbeddingModel(np.eye(4, 8)), 0.7)


# ---------------------------------------------------------------- gradients


def finite_difference(fn, W, h=1e-5):
    g = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp = W.copy()
            Wp[i, j] += h
            Wm = W.copy()
            Wm[i, j] -= h
            g[i, j] = (fn(Wp) - fn(Wm)) / (2 * h)
    return g


def rel_error(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / scale


def test_gradient_contrastive_finite_difference():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        res = make_store(rng, 6, 6)
        t = TrainingTuple(0, 1, [2, 3])
        W = rng.standard_normal((3, 6))
        _, g = aggregated_value_and_grad([t], res, EmbeddingModel(W.copy()), 0.7)
        gfd = finite_difference(lambda Wx: contrastive_oracle(t, res, EmbeddingModel(Wx), 0.7), W)
        worst = max(worst, rel_error(g, gfd))
    assert worst < 1e-4


def test_gradient_multi_finite_difference():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(30):
        res = make_store(rng, 6, 6, with_variants=True)
        t0 = TrainingTuple(0, 1, [2, 3])
        t1 = TrainingTuple(0, 1, [2, 3], prompt="shiftA", weight=0.6)
        W = rng.standard_normal((3, 6))
        _, g = multi_value_and_grad([t0, t1], res, EmbeddingModel(W.copy()), 0.7)
        gfd = finite_difference(
            lambda Wx: multi_value_and_grad([t0, t1], res, EmbeddingModel(Wx), 0.7)[0], W
        )
        worst = max(worst, rel_error(g, gfd))
    assert worst < 1e-4


def test_gradient_aggregated_finite_difference():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(30):
        res = make_store(rng, 6, 6, with_variants=True)
        t0 = TrainingTuple(0, 1, [2, 3])
        t1 = TrainingTuple(0, 1, [2, 3], prompt="shiftA", weight=0.6)
        W = rng.standard_normal((3, 6))
        _, g = aggregated_value_and_grad([t0, t1], res, EmbeddingModel(W.copy()), 0.7)
        gfd = finite_difference(
            lambda Wx: aggregated_value_and_grad([t0, t1], res, EmbeddingModel(Wx), 0.7)[0], W
        )
        worst = max(worst, rel_error(g, gfd))
    assert worst < 1e-4


def test_gradient_zero_when_loss_flat():
    """f(q)=f(p) identical views and inactive hinges: positive-term gradient
    cancels and hinge contributes nothing."""
    rng = np.random.default_rng(14)
    q = make_view(rng, 4, 8, view_id=0)
    p = ViewImage(1, q.pose, q.intrinsics, q.kp, q.desc, q.lid)
    n = make_view(rng, 4, 8, view_id=2)
    res = {(0, None): q, (1, None): p, (2, None): n}
    W = rng.standard_normal((4, 8))
    model = EmbeddingModel(W)
    t = TrainingTuple(0, 1, [2])
    loss, g = aggregated_value_and_grad([t], res, model, 1e-9)  # hinge surely inactive
    assert loss == 0.0
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_orthogonal_to_scaling_direction():
    """f is scale-invariant in W, so the directional derivative along W is 0."""
    rng = np.random.default_rng(15)
    res = make_store(rng, 6, 8)
    t = TrainingTuple(0, 1, [2, 3])
    W = rng.standard_normal((4, 8))
    _, g = aggregated_value_and_grad([t], res, EmbeddingModel(W.copy()), 0.7)
    assert abs(float(np.sum(g * W))) < 1e-9


# ---------------------------------------------------------------- averaging and diagnostics


def test_average_models():
    a = EmbeddingModel(np.ones((2, 3)))
    b = EmbeddingModel(-np.ones((2, 3)))
    assert np.array_equal(average_models([a]).projection, a.projection)
    assert np.array_equal(average_models([a, b]).projection, np.zeros((2, 3)))
    rng = np.random.default_rng(17)
    ms = [EmbeddingModel(rng.standard_normal((2, 3))) for _ in range(3)]
    avg = average_models(ms)
    expected = (ms[0].projection + ms[1].projection + ms[2].projection) / 3.0
    assert np.allclose(avg.projection, expected, atol=1e-15)
    with pytest.raises(ValueError):
        average_models([a, EmbeddingModel(np.ones((3, 3)))])
