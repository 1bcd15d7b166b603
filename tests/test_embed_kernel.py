"""The training kernel against a reference copy of its earlier dict-based
form: the same loss bits and the same gradient bytes, on random families and
on the degenerate cases that take the kernel's special branches."""

import numpy as np
import pytest

from synthloc.embed import (
    EmbeddingModel,
    TrainingTuple,
    _Forwards,
    aggregate,
    aggregated_value_and_grad,
    multi_value_and_grad,
)
from synthloc.worldgen import ViewImage

from conftest import make_view

PROMPTS = ("a", "b", "c")


# ---------------------------------------------------------------- reference


def ref_forward(X, W):
    Z = X @ W.T
    w = np.linalg.norm(Z, axis=1)
    S = float(np.sum(w))
    if S == 0.0:
        f = np.zeros(W.shape[0])
        f[0] = 1.0
        return {"X": X, "Z": Z, "w": w, "S": S, "u": np.zeros(W.shape[0]), "r": 0.0, "f": f, "degenerate": True}
    u = (w[:, None] * Z).sum(axis=0) / S
    r = float(np.linalg.norm(u))
    if r == 0.0:
        f = np.zeros(W.shape[0])
        f[0] = 1.0
        return {"X": X, "Z": Z, "w": w, "S": S, "u": u, "r": r, "f": f, "degenerate": True}
    return {"X": X, "Z": Z, "w": w, "S": S, "u": u, "r": r, "f": u / r, "degenerate": False}


def ref_backward(cache, g):
    if cache["degenerate"]:
        return np.zeros((g.shape[0], cache["X"].shape[1]))
    f, r, u, S = cache["f"], cache["r"], cache["u"], cache["S"]
    Z, w, X = cache["Z"], cache["w"], cache["X"]
    h = (g - f * float(np.dot(f, g))) / r
    zh = Z @ h
    uh = float(np.dot(u, h))
    with np.errstate(divide="ignore", invalid="ignore"):
        zhat = np.where(w[:, None] > 0, Z / np.where(w[:, None] > 0, w[:, None], 1.0), 0.0)
    dZ = (w[:, None] * h[None, :] + zhat * (zh - uh)[:, None]) / S
    return dZ.T @ X


def ref_pair_term(fq, fp):
    d = fq - fp
    return float(np.dot(d, d))


def ref_tuple_views(views, t):
    """A tuple's query, positive and negatives from a (view id, prompt)
    dict: the query and negatives under the tuple's prompt, the positive
    original."""
    q = views[(t.query_id, t.prompt)]
    return q, views[(t.positive_id, None)], [views[(n, t.prompt)] for n in t.negative_ids]


def ref_multi(tuples, views, model, margin):
    W = model.projection
    k = len(tuples)
    total = 0.0
    dW = np.zeros_like(W)
    for t in tuples:
        q, p, ns = ref_tuple_views(views, t)
        cq = ref_forward(q.descriptors(), W)
        cp = ref_forward(p.descriptors(), W)
        fq, fp = cq["f"], cp["f"]
        term = t.weight * ref_pair_term(fq, fp)
        gq = t.weight * 2.0 * (fq - fp)
        dW += ref_backward(cp, -t.weight * 2.0 * (fq - fp) / k)
        for n in ns:
            cn = ref_forward(n.descriptors(), W)
            fn = cn["f"]
            h = margin - ref_pair_term(fq, fn)
            if h > 0.0:
                term += h
                gq += -2.0 * (fq - fn)
                dW += ref_backward(cn, 2.0 * (fq - fn) / k)
        total += term
        dW += ref_backward(cq, gq / k)
    return total / k, dW


def ref_phi_forward(caches):
    if len(caches) == 1:
        return {"caches": caches, "phi": caches[0]["f"], "singleton": True, "degenerate": False}
    m = np.mean([c["f"] for c in caches], axis=0)
    r = float(np.linalg.norm(m))
    if r == 0.0:
        phi = np.zeros_like(m)
        phi[0] = 1.0
        return {"caches": caches, "phi": phi, "singleton": False, "degenerate": True, "m": m, "r": r}
    return {"caches": caches, "phi": m / r, "singleton": False, "degenerate": False, "m": m, "r": r}


def ref_phi_backward(pc, g):
    if pc["singleton"]:
        return ref_backward(pc["caches"][0], g)
    if pc["degenerate"]:
        return np.zeros((g.shape[0], pc["caches"][0]["X"].shape[1]))
    phi, r = pc["phi"], pc["r"]
    gm = (g - phi * float(np.dot(phi, g))) / r
    per_member = gm / len(pc["caches"])
    dW = None
    for c in pc["caches"]:
        contrib = ref_backward(c, per_member)
        dW = contrib if dW is None else dW + contrib
    return dW


def ref_aggregated(family, views, model, margin):
    W = model.projection
    members = [ref_tuple_views(views, t) for t in family]
    pc_q = ref_phi_forward([ref_forward(q.descriptors(), W) for q, _, _ in members])
    pc_p = ref_phi_forward([ref_forward(p.descriptors(), W) for _, p, _ in members])
    phi_q, phi_p = pc_q["phi"], pc_p["phi"]
    loss = ref_pair_term(phi_q, phi_p)
    gq = 2.0 * (phi_q - phi_p)
    dW = ref_phi_backward(pc_p, -2.0 * (phi_q - phi_p))
    for slot in range(len(family[0].negative_ids)):
        pc_n = ref_phi_forward([ref_forward(ns[slot].descriptors(), W) for _, _, ns in members])
        phi_n = pc_n["phi"]
        h = margin - ref_pair_term(phi_q, phi_n)
        if h > 0.0:
            loss += h
            gq += -2.0 * (phi_q - phi_n)
            dW += ref_phi_backward(pc_n, 2.0 * (phi_q - phi_n))
    dW += ref_phi_backward(pc_q, gq)
    return loss, dW


# ---------------------------------------------------------------- helpers

KERNELS = [(multi_value_and_grad, ref_multi), (aggregated_value_and_grad, ref_aggregated)]


def assert_same_bits(got, want):
    (loss, grad), (ref_loss, ref_grad) = got, want
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
    assert grad.tobytes() == ref_grad.tobytes()


def random_setup(rng, m, d=32, n_views=None):
    """Original views 0..m+1 and one variant per view under each prompt,
    keyed by (view id, prompt)."""
    n_views = n_views or m + 2
    views = {
        (i, None): make_view(np.random.default_rng(int(rng.integers(1 << 30))), int(rng.integers(1, 100)), d, view_id=i)
        for i in range(n_views)
    }
    for i in range(n_views):
        for prompt in PROMPTS:
            views[(i, prompt)] = make_view(
                np.random.default_rng(int(rng.integers(1 << 30))),
                int(rng.integers(1, 100)),
                d,
                view_id=i,
                condition=prompt,
            )
    return views


def family_of(rng, k, m):
    negatives = list(range(2, 2 + m))
    family = [TrainingTuple(0, 1, negatives)]
    for prompt in PROMPTS[: k - 1]:
        family.append(
            TrainingTuple(0, 1, negatives, prompt=prompt, weight=float(rng.uniform(0.05, 1.0)))
        )
    return family


def view_of(view_id, descriptors, condition="original"):
    n = len(descriptors)
    return ViewImage(view_id, None, np.zeros((n, 2)), descriptors, np.full(n, -1), condition=condition)


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_kernel_matches_reference_on_random_families(k, m):
    rng = np.random.default_rng(1000 * k + m)
    for _ in range(12):
        views = random_setup(rng, m)
        family = family_of(rng, k, m)
        model = EmbeddingModel(rng.standard_normal((16, 32)) / np.sqrt(32))
        margin = float(rng.uniform(0.2, 2.0))  # mixes active and inactive hinges
        for kernel, reference in KERNELS:
            assert_same_bits(
                kernel(family, views, model, margin), reference(family, views, model, margin)
            )


def test_kernel_matches_reference_with_zero_projection():
    """S == 0 for every view: all descriptors are the first basis vector."""
    rng = np.random.default_rng(1)
    views = random_setup(rng, 3)
    model = EmbeddingModel(np.zeros((16, 32)))
    for k in (1, 3):
        family = family_of(rng, k, 3)
        for kernel, reference in KERNELS:
            assert_same_bits(kernel(family, views, model, 0.7), reference(family, views, model, 0.7))


def test_kernel_matches_reference_with_zero_descriptor_feature():
    """A zero descriptor makes a w == 0 row, which takes the masked zhat path."""
    rng = np.random.default_rng(2)
    d = 8
    views = {
        (i, None): view_of(i, [np.zeros(d)] + list(rng.standard_normal((4, d))))
        for i in range(5)
    }
    model = EmbeddingModel(rng.standard_normal((4, d)))
    t = TrainingTuple(0, 1, [2, 3, 4])
    for kernel, reference in KERNELS:
        for margin in (0.3, 4.0):  # inactive and active hinges
            assert_same_bits(kernel([t], views, model, margin), reference([t], views, model, margin))


def test_kernel_matches_reference_with_cancelling_view():
    """A view made of x and -x has u == 0, so r == 0."""
    rng = np.random.default_rng(3)
    d = 8
    x = rng.standard_normal(d)
    views = {(i, None): view_of(i, rng.standard_normal((3, d))) for i in range(4)}
    views[(0, None)] = view_of(0, [x, -x])  # the query
    views[(2, None)] = view_of(2, [x, -x])  # a negative
    model = EmbeddingModel(rng.standard_normal((4, d)))
    t = TrainingTuple(0, 1, [2, 3])
    for kernel, reference in KERNELS:
        assert_same_bits(kernel([t], views, model, 4.0), reference([t], views, model, 4.0))


def test_kernel_matches_reference_on_repeated_views():
    """A family that repeats a tuple repeats its query and negative view
    objects, and every family repeats its positive: each is projected once
    and back-propagated once per occurrence."""
    rng = np.random.default_rng(4)
    views = random_setup(rng, 3)
    model = EmbeddingModel(rng.standard_normal((16, 32)) / np.sqrt(32))
    base = family_of(rng, 2, 3)
    for family in ([base[0], base[0]], [base[0], base[1], base[1]], [base[1], base[0], base[1]]):
        for kernel, reference in KERNELS:
            assert_same_bits(kernel(family, views, model, 1.5), reference(family, views, model, 1.5))


def test_prefilled_forwards_match_fresh_passes():
    """Training passes in the query's forward pass from mining; the step is
    the same as one that projects every view itself."""
    rng = np.random.default_rng(5)
    views = random_setup(rng, 3)
    model = EmbeddingModel(rng.standard_normal((16, 32)) / np.sqrt(32))
    family = family_of(rng, 3, 3)
    for kernel, _ in KERNELS:
        forwards = _Forwards(model.projection)
        fq = forwards(views[(0, None)]).f
        assert fq.tobytes() == aggregate(views[(0, None)], model).tobytes()
        assert_same_bits(
            kernel(family, views, model, 1.0, forwards), kernel(family, views, model, 1.0)
        )
    with pytest.raises(ValueError):
        multi_value_and_grad(family, views, model, 1.0, _Forwards(model.projection.copy()))
