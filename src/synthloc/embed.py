"""Linear retrieval model: norm-weighted aggregation of projected local
descriptors into a unit global descriptor, contrastive losses over real and
synthetic tuples, exact analytic gradients, hard-negative mining, tuple
sampling and the episodic training loop.

Each loss has one implementation, which returns the value and the gradient
together: `multi_value_and_grad` for `multi_k` and
`aggregated_value_and_grad` for `aggregated_k`. `baseline` and `swap_pi`
train through `aggregated_value_and_grad` on a one-tuple family, which is
the plain contrastive loss exactly, because the mean of a single member
descriptor is passed through untouched in both directions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergedError,
    EmptyTupleSetError,
    InsufficientNegativesError,
    InvalidSyntheticPairError,
    MismatchedTupleFamilyError,
)
from .geometry import ConsistencyScore, ScoreStore, validate_pair
from .variants import VariantStore
from .worldgen import ViewImage, World, derive_seed


@dataclass
class EmbeddingModel:
    projection: np.ndarray  # (e, d), e <= d

    def __post_init__(self) -> None:
        self.projection = np.asarray(self.projection, dtype=float)
        if not np.all(np.isfinite(self.projection)):
            raise ValueError("projection must be finite")
        if self.projection.shape[0] > self.projection.shape[1]:
            raise ValueError("embedding dim must not exceed descriptor dim")

    @property
    def e(self) -> int:
        return self.projection.shape[0]

    @property
    def d(self) -> int:
        return self.projection.shape[1]


@dataclass
class TrainingTuple:
    query_id: int
    positive_id: int
    negative_ids: list[int]
    prompt: str | None = None  # None marks the original tuple
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.query_id in self.negative_ids or self.positive_id in self.negative_ids:
            raise ValueError("negatives must be disjoint from the matching pair")
        if not self.negative_ids:
            raise ValueError("a tuple needs at least one negative")


@dataclass
class TrainConfig:
    margin: float = 0.7
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    episodes: int = 30
    pairs_per_episode: int = 200
    negative_pool_size: int = 2000
    num_negatives: int = 5  # M
    mode: str = "baseline"  # baseline | swap_pi | multi_k | aggregated_k
    swap_probability: float = 0.5  # pi
    num_variants: int = 2  # K synthetic tuples alongside the original
    c_tau: float = 0.2
    threshold_mode: str = "relative"
    sampling: str = "uniform"  # uniform | geometry_aware
    embedding_dim: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.swap_probability <= 1.0:
            raise ValueError("swap probability must be in [0, 1]")
        if self.num_variants < 1 and self.mode in ("multi_k", "aggregated_k"):
            raise ValueError("K must be >= 1 for multi/aggregated modes")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.sampling == "geometry_aware" and self.c_tau <= 0 and self.threshold_mode == "relative":
            raise ValueError("geometry-aware sampling requires tuple filtering (c_tau > 0)")


class ViewResolver:
    """Resolves tuple member ids to views; synthetic tuples pull the query and
    negatives from the variant store while the positive stays original."""

    def __init__(self, originals: dict[int, ViewImage], variants: VariantStore | None = None):
        self.originals = originals
        self.variants = variants

    def view(self, view_id: int, prompt: str | None = None) -> ViewImage:
        if prompt is None:
            return self.originals[view_id]
        if self.variants is None:
            raise KeyError("no variant store attached")
        return self.variants.get(view_id, prompt)

    def tuple_views(self, t: TrainingTuple) -> tuple[ViewImage, ViewImage, list[ViewImage]]:
        q = self.view(t.query_id, t.prompt)
        p = self.view(t.positive_id, None)
        ns = [self.view(n, t.prompt) for n in t.negative_ids]
        return q, p, ns


def init_model(d: int, e: int, seed: int) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    return EmbeddingModel(projection=rng.standard_normal((e, d)) / math.sqrt(d))


# ---------------------------------------------------------------------------
# forward / backward of the aggregated global descriptor
# ---------------------------------------------------------------------------


def _forward(X: np.ndarray, W: np.ndarray) -> dict:
    """Norm-weighted mean of projected descriptors, l2-normalized."""
    Z = X @ W.T  # (n, e)
    w = np.linalg.norm(Z, axis=1)  # (n,)
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


def _backward(cache: dict, g: np.ndarray) -> np.ndarray:
    """dL/dW given dL/df, chaining the normalization and norm weighting."""
    if cache["degenerate"]:
        return np.zeros((g.shape[0], cache["X"].shape[1]))
    f, r, u, S = cache["f"], cache["r"], cache["u"], cache["S"]
    Z, w, X = cache["Z"], cache["w"], cache["X"]
    h = (g - f * float(np.dot(f, g))) / r  # dL/du
    zh = Z @ h  # (n,)
    uh = float(np.dot(u, h))
    with np.errstate(divide="ignore", invalid="ignore"):
        zhat = np.where(w[:, None] > 0, Z / np.where(w[:, None] > 0, w[:, None], 1.0), 0.0)
    dZ = (w[:, None] * h[None, :] + zhat * (zh - uh)[:, None]) / S
    return dZ.T @ X  # (e, d)


def aggregate(view: ViewImage, model: EmbeddingModel) -> np.ndarray:
    """Unit global descriptor of a view (first basis vector when degenerate)."""
    return _forward(view.descriptors(), model.projection)["f"]


# ---------------------------------------------------------------------------
# losses and their gradients
# ---------------------------------------------------------------------------


def _pair_term(fq: np.ndarray, fp: np.ndarray) -> float:
    d = fq - fp
    return float(np.dot(d, d))


def multi_value_and_grad(
    tuples: list[TrainingTuple], resolver: ViewResolver, model: EmbeddingModel, margin: float
) -> tuple[float, np.ndarray]:
    """Mean over the tuples of the weighted contrastive loss: each positive
    term scaled by the tuple weight, hinges unweighted; and its dLoss/dW."""
    if not tuples:
        raise EmptyTupleSetError("empty tuple set")
    W = model.projection
    k = len(tuples)
    total = 0.0
    dW = np.zeros_like(W)
    for t in tuples:
        q, p, ns = resolver.tuple_views(t)
        cq = _forward(q.descriptors(), W)
        cp = _forward(p.descriptors(), W)
        fq, fp = cq["f"], cp["f"]
        term = t.weight * _pair_term(fq, fp)
        gq = t.weight * 2.0 * (fq - fp)
        dW += _backward(cp, -t.weight * 2.0 * (fq - fp) / k)
        for n in ns:
            cn = _forward(n.descriptors(), W)
            fn = cn["f"]
            h = margin - _pair_term(fq, fn)
            if h > 0.0:
                term += h
                gq += -2.0 * (fq - fn)
                dW += _backward(cn, 2.0 * (fq - fn) / k)
        total += term
        dW += _backward(cq, gq / k)
    return total / k, dW


def _family_views(
    family: list[TrainingTuple], resolver: ViewResolver
) -> tuple[list[ViewImage], list[ViewImage], list[list[ViewImage]]]:
    """Member views of an original-plus-synthetics tuple family, grouped by
    role: queries, positives (one per tuple), negatives per slot."""
    if not family:
        raise EmptyTupleSetError("empty tuple set")
    base = family[0]
    m = len(base.negative_ids)
    for t in family[1:]:
        if t.positive_id != base.positive_id or len(t.negative_ids) != m:
            raise MismatchedTupleFamilyError("mismatched tuple family")
    queries, positives = [], []
    negatives: list[list[ViewImage]] = [[] for _ in range(m)]
    for t in family:
        q, p, ns = resolver.tuple_views(t)
        queries.append(q)
        positives.append(p)
        for slot, n in enumerate(ns):
            negatives[slot].append(n)
    return queries, positives, negatives


def _phi_forward(caches: list[dict]) -> dict:
    """Mean of member descriptors, renormalized; a singleton passes through
    untouched so K=0 reduces exactly to the plain contrastive loss."""
    if len(caches) == 1:
        return {"caches": caches, "phi": caches[0]["f"], "singleton": True, "degenerate": False}
    m = np.mean([c["f"] for c in caches], axis=0)
    r = float(np.linalg.norm(m))
    if r == 0.0:
        phi = np.zeros_like(m)
        phi[0] = 1.0
        return {"caches": caches, "phi": phi, "singleton": False, "degenerate": True, "m": m, "r": r}
    return {"caches": caches, "phi": m / r, "singleton": False, "degenerate": False, "m": m, "r": r}


def _phi_backward(pc: dict, g: np.ndarray) -> np.ndarray:
    if pc["singleton"]:
        return _backward(pc["caches"][0], g)
    if pc["degenerate"]:
        c0 = pc["caches"][0]
        return np.zeros((g.shape[0], c0["X"].shape[1]))
    phi, r = pc["phi"], pc["r"]
    gm = (g - phi * float(np.dot(phi, g))) / r
    per_member = gm / len(pc["caches"])
    dW = None
    for c in pc["caches"]:
        contrib = _backward(c, per_member)
        dW = contrib if dW is None else dW + contrib
    return dW


def aggregated_value_and_grad(
    family: list[TrainingTuple], resolver: ViewResolver, model: EmbeddingModel, margin: float
) -> tuple[float, np.ndarray]:
    """Contrastive loss over the family-mean descriptors of each role, and
    its dLoss/dW. `baseline` and `swap_pi` train through a one-tuple family:
    a singleton mean is the member's own descriptor and its backward is the
    member's own backward, so the loss and gradient are exactly those of the
    plain contrastive loss, bit for bit."""
    queries, positives, negatives = _family_views(family, resolver)
    W = model.projection
    pc_q = _phi_forward([_forward(v.descriptors(), W) for v in queries])
    pc_p = _phi_forward([_forward(v.descriptors(), W) for v in positives])
    phi_q, phi_p = pc_q["phi"], pc_p["phi"]
    loss = _pair_term(phi_q, phi_p)
    gq = 2.0 * (phi_q - phi_p)
    dW = _phi_backward(pc_p, -2.0 * (phi_q - phi_p))
    for slot_views in negatives:
        pc_n = _phi_forward([_forward(v.descriptors(), W) for v in slot_views])
        phi_n = pc_n["phi"]
        h = margin - _pair_term(phi_q, phi_n)
        if h > 0.0:
            loss += h
            gq += -2.0 * (phi_q - phi_n)
            dW += _phi_backward(pc_n, 2.0 * (phi_q - phi_n))
    dW += _phi_backward(pc_q, gq)
    return loss, dW


# ---------------------------------------------------------------------------
# mining, tuple construction, sampling
# ---------------------------------------------------------------------------


def mine_negatives(
    query_id: int,
    positive_id: int,
    pool_ids: list[int],
    resolver: ViewResolver,
    model: EmbeddingModel,
    m: int,
    coobs: dict[int, frozenset[int]],
    pool_embeddings: np.ndarray | None = None,
    query_embedding: np.ndarray | None = None,
) -> list[int]:
    """The M pool views most similar to the query that share no landmark with
    the query or the positive. Ties break to the lower view id."""
    q_set = coobs[query_id]
    p_set = coobs[positive_id]
    eligible = [
        (idx, vid)
        for idx, vid in enumerate(pool_ids)
        if not (coobs[vid] & q_set) and not (coobs[vid] & p_set)
    ]
    if len(eligible) < m:
        raise InsufficientNegativesError(
            f"insufficient negatives: {len(eligible)} eligible, {m} requested"
        )
    fq = (
        query_embedding
        if query_embedding is not None
        else aggregate(resolver.view(query_id), model)
    )
    if pool_embeddings is None:
        sims = [float(np.dot(aggregate(resolver.view(vid), model), fq)) for _, vid in eligible]
    else:
        sims = [float(np.dot(pool_embeddings[idx], fq)) for idx, _ in eligible]
    order = sorted(range(len(eligible)), key=lambda i: (-sims[i], eligible[i][1]))
    return [eligible[i][1] for i in order[:m]]


def build_synthetic_tuple(
    t: TrainingTuple,
    prompt: str,
    variants: VariantStore,
    score: ConsistencyScore,
    c_tau: float,
    threshold_mode: str = "relative",
) -> TrainingTuple:
    """Same-prompt substitution of the query and every negative; the positive
    is kept original and the tuple weight becomes the consistency score."""
    if not validate_pair(score, c_tau, threshold_mode):
        raise InvalidSyntheticPairError("invalid synthetic pair")
    variants.get(t.query_id, prompt)  # raises MissingVariantError
    for n in t.negative_ids:
        variants.get(n, prompt)
    return TrainingTuple(
        query_id=t.query_id,
        positive_id=t.positive_id,
        negative_ids=list(t.negative_ids),
        prompt=prompt,
        weight=score.value,
    )


def synthetic_family(
    t: TrainingTuple,
    variants: VariantStore,
    scores: ScoreStore,
    c_tau: float,
    threshold_mode: str = "relative",
) -> list[tuple[TrainingTuple, float]]:
    """All valid synthetic tuples for an original tuple, with their scores,
    in prompt order."""
    out = []
    for prompt, score in scores.for_pair(t.query_id, t.positive_id):
        if not validate_pair(score, c_tau, threshold_mode):
            continue
        if not variants.has(t.query_id, prompt):
            continue
        if any(not variants.has(n, prompt) for n in t.negative_ids):
            continue
        out.append(
            (build_synthetic_tuple(t, prompt, variants, score, c_tau, threshold_mode), score.value)
        )
    return out


def _draw(rng: np.random.Generator, family: list[tuple[TrainingTuple, float]], sampling: str) -> int:
    if sampling == "geometry_aware":
        inv = np.array([1.0 / max(s, 1e-12) for _, s in family])
        probs = inv / inv.sum()
        return int(rng.choice(len(family), p=probs))
    return int(rng.integers(len(family)))


def sample_tuples(
    t: TrainingTuple,
    family: list[tuple[TrainingTuple, float]],
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[TrainingTuple]:
    """Tuples used for one training step, per the configured mode.

    swap_pi: the original with probability 1 - pi, else one synthetic tuple.
    multi_k / aggregated_k: the original plus up to K synthetic tuples drawn
    without replacement. geometry_aware sampling draws prompts with
    probability proportional to 1/score. Falls back to the original alone
    when no valid synthetic tuple exists.
    """
    if config.mode == "baseline" or not family:
        return [t]
    if config.mode == "swap_pi":
        if rng.random() < config.swap_probability:
            return [family[_draw(rng, family, config.sampling)][0]]
        return [t]
    if config.mode in ("multi_k", "aggregated_k"):
        chosen = [t]
        remaining = list(family)
        for _ in range(min(config.num_variants, len(remaining))):
            idx = _draw(rng, remaining, config.sampling)
            chosen.append(remaining.pop(idx)[0])
        return chosen
    raise ValueError(f"unknown mode {config.mode!r}")


# ---------------------------------------------------------------------------
# training loop, model averaging, diagnostics
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    episode: int
    mean_loss: float
    synth_fraction: float


def train(
    world: World,
    variants: VariantStore | None,
    scores: ScoreStore | None,
    config: TrainConfig,
) -> tuple[EmbeddingModel, list[TraceRow]]:
    """Episodic training: per episode, sample matching pairs and a mining
    pool, mine hard negatives with the episode-start model, build the
    configured tuples and take one gradient step per pair. Deterministic for
    a fixed (world, config) including the seed."""
    if not world.matching_pairs:
        raise ValueError("world has no matching pairs")
    if config.mode != "baseline" and (variants is None or scores is None):
        raise ValueError(f"mode {config.mode!r} needs variants and scores")

    views = {v.id: v for v in world.map_views}
    resolver = ViewResolver(views, variants)
    coobs = {vid: v.visible_landmark_set() for vid, v in views.items()}
    d = world.landmarks[0].base_descriptor.shape[0]
    model = init_model(d, config.embedding_dim, derive_seed(config.seed, 201))
    rng = np.random.default_rng(derive_seed(config.seed, 202))
    map_ids = sorted(views)
    use_synth = config.mode != "baseline"

    trace: list[TraceRow] = []
    for episode in range(config.episodes):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * episode / max(config.episodes, 1)))
        pool_size = min(config.negative_pool_size, len(map_ids))
        pool_ids = sorted(int(i) for i in rng.choice(map_ids, size=pool_size, replace=False))
        pool_emb = np.array([aggregate(views[vid], model) for vid in pool_ids])

        pair_idx = rng.integers(len(world.matching_pairs), size=config.pairs_per_episode)

        losses = []
        synth_used = 0
        tuples_used = 0
        for pi in pair_idx:
            a, b, _ = world.matching_pairs[int(pi)]
            q_id, p_id = (a, b) if rng.random() < 0.5 else (b, a)
            try:
                negs = mine_negatives(
                    q_id, p_id, pool_ids, resolver, model, config.num_negatives, coobs,
                    pool_embeddings=pool_emb,
                )
            except InsufficientNegativesError:
                continue
            original = TrainingTuple(query_id=q_id, positive_id=p_id, negative_ids=negs)
            family = (
                synthetic_family(original, variants, scores, config.c_tau, config.threshold_mode)
                if use_synth
                else []
            )
            chosen = sample_tuples(original, family, config, rng)
            synth_used += sum(1 for c in chosen if c.prompt is not None)
            tuples_used += len(chosen)

            value_and_grad = (
                multi_value_and_grad if config.mode == "multi_k" else aggregated_value_and_grad
            )
            loss, dW = value_and_grad(chosen, resolver, model, config.margin)
            if not np.isfinite(loss):
                raise DivergedError("diverged")
            model.projection = (1.0 - lr * config.weight_decay) * model.projection - lr * dW
            losses.append(loss)

        trace.append(
            TraceRow(
                episode=episode,
                mean_loss=float(np.mean(losses)) if losses else 0.0,
                synth_fraction=synth_used / tuples_used if tuples_used else 0.0,
            )
        )
    return model, trace


def average_models(models: list[EmbeddingModel]) -> EmbeddingModel:
    """Entrywise mean of the projection matrices."""
    if not models:
        raise ValueError("no models to average")
    shape = models[0].projection.shape
    for m in models[1:]:
        if m.projection.shape != shape:
            raise ValueError("dimension mismatch")
    return EmbeddingModel(projection=np.mean([m.projection for m in models], axis=0))


def feature_diagnostics(
    views: list[ViewImage],
    variants: VariantStore,
    model: EmbeddingModel,
    alpha: float = 2.0,
    t: float = 2.0,
) -> tuple[float, float]:
    """Alignment over original/variant positive pairs and uniformity over all
    distinct embedding pairs (lower is better for both)."""
    by_view: dict[int, list[ViewImage]] = {}
    for (vid, prompt), variant in sorted(variants.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        by_view.setdefault(vid, []).append(variant)
    embeddings = []
    align_terms = []
    for view in views:
        f_orig = aggregate(view, model)
        embeddings.append(f_orig)
        for variant in by_view.get(view.id, []):
            f_var = aggregate(variant, model)
            embeddings.append(f_var)
            align_terms.append(float(np.linalg.norm(f_orig - f_var) ** alpha))
    alignment = float(np.mean(align_terms)) if align_terms else 0.0
    emb = np.array(embeddings)
    n = emb.shape[0]
    if n < 2:
        return alignment, 0.0
    sq = np.sum((emb[:, None, :] - emb[None, :, :]) ** 2, axis=2)
    iu = np.triu_indices(n, k=1)
    uniformity = float(np.log(np.mean(np.exp(-t * sq[iu]))))
    return alignment, uniformity
