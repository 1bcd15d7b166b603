"""Linear retrieval model: norm-weighted aggregation of projected local
descriptors into a unit global descriptor, contrastive losses over real and
synthetic tuples, exact analytic gradients, hard-negative mining, tuple
sampling and the episodic training loop.

Training reads every view through one dict keyed by (view id, prompt),
which `train` builds once from the map views (prompt None) and the
`generate_all_variants` mapping (`_training_views`).

The contrastive loss has one body, `_contrastive`, which returns the value
and adds the gradient, over the role descriptors that `_family_views` builds
for a tuple family. `aggregated_value_and_grad` (`aggregated_k`) calls it
once for the whole family; `multi_value_and_grad` (`multi_k`) calls it once
per tuple, each tuple a one-tuple family with its own weight. `baseline` and
`swap_pi` train through `aggregated_value_and_grad` on a one-tuple family,
which is the plain contrastive loss exactly, because the mean of a single
member descriptor is passed through untouched in both directions. Every loss
and `aggregate` run on one per-view kernel, `_forward`/`_backward`; within a
training step each view object is projected once (`_Forwards`)."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InsufficientNegativesError,
    is_finite_number,
    require_integer,
    require_number,
)
from .geometry import Scores, validate_pair
from .worldgen import ViewImage, World, derive_seed, shared_landmarks


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


MODES = ("baseline", "swap_pi", "multi_k", "aggregated_k")
SAMPLINGS = ("uniform", "geometry_aware")

# the loss margin and the step's rate and weight decay of every training run
MARGIN = 0.7
LEARNING_RATE = 1e-2
WEIGHT_DECAY = 1e-4


@dataclass
class TrainConfig:
    episodes: int = 30
    pairs_per_episode: int = 200
    negative_pool_size: int = 2000
    num_negatives: int = 5  # M
    mode: str = "baseline"  # baseline | swap_pi | multi_k | aggregated_k
    swap_probability: float = 0.5  # pi
    num_variants: int = 2  # K synthetic tuples alongside the original
    c_tau: float = 0.2
    sampling: str = "uniform"  # uniform | geometry_aware
    embedding_dim: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("episodes", "num_variants", "seed"):
            require_integer(name, getattr(self, name), 0)
        for name in ("pairs_per_episode", "negative_pool_size", "num_negatives", "embedding_dim"):
            require_integer(name, getattr(self, name), 1)
        if self.num_negatives > self.negative_pool_size:
            raise ValueError(
                f"num_negatives {self.num_negatives} exceeds negative_pool_size "
                f"{self.negative_pool_size}: a training pair mines its negatives from that pool"
            )
        require_number("c_tau", self.c_tau)
        for name, known in (("mode", MODES), ("sampling", SAMPLINGS)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)}, not {getattr(self, name)!r}")
        if not (is_finite_number(self.swap_probability) and 0.0 <= self.swap_probability <= 1.0):
            raise ValueError(f"swap_probability must be a number in [0, 1], not {self.swap_probability!r}")
        if self.num_variants < 1 and self.mode in ("multi_k", "aggregated_k"):
            raise ValueError("K must be >= 1 for multi/aggregated modes")
        if self.sampling == "geometry_aware" and self.c_tau <= 0:
            raise ValueError("geometry-aware sampling requires tuple filtering (c_tau > 0)")


Views = dict[tuple[int, str | None], ViewImage]  # (view id, prompt); None for an original


def _training_views(world: World, variants: dict[int, list[ViewImage]] | None) -> Views:
    """The world's map views under prompt None and each of `variants`, a
    `generate_all_variants` mapping, under its prompt."""
    views: Views = {(v.id, None): v for v in world.map_views}
    for view_id, row in (variants or {}).items():
        views.update(((view_id, v.condition), v) for v in row)
    return views


def _tuple_views(views: Views, t: TrainingTuple) -> list[ViewImage]:
    """The views of `t` in role order, query, positive, then each negative:
    the query and the negatives under the tuple's prompt, the positive
    original."""
    q = views[(t.query_id, t.prompt)]
    return [q, views[(t.positive_id, None)], *(views[(n, t.prompt)] for n in t.negative_ids)]


def init_model(d: int, e: int, seed: int) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    return EmbeddingModel(projection=rng.standard_normal((e, d)) / math.sqrt(d))


# ---------------------------------------------------------------------------
# forward / backward of the aggregated global descriptor
# ---------------------------------------------------------------------------


class _Forward:
    """One view's forward pass, kept for its backward."""

    __slots__ = ("X", "Z", "w", "S", "u", "r", "f", "degenerate")

    def __init__(self, X, Z, w, S, u, r, f, degenerate):
        self.X, self.Z, self.w, self.S = X, Z, w, S
        self.u, self.r, self.f, self.degenerate = u, r, f, degenerate


def _first_basis(e: int) -> np.ndarray:
    f = np.zeros(e)
    f[0] = 1.0
    return f


def _forward(X: np.ndarray, W: np.ndarray) -> _Forward:
    """Norm-weighted mean of projected descriptors, l2-normalized.

    The row norms are `np.sqrt(np.add.reduce(Z * Z, axis=1))`, which is what
    `np.linalg.norm(Z, axis=1)` computes, without its wrapper."""
    Z = X @ W.T  # (n, e)
    w = np.sqrt(np.add.reduce(Z * Z, axis=1))  # (n,)
    S = float(np.add.reduce(w))
    if S == 0.0:
        return _Forward(X, Z, w, S, np.zeros(W.shape[0]), 0.0, _first_basis(W.shape[0]), True)
    u = np.add.reduce(w[:, None] * Z, axis=0) / S
    r = math.sqrt(float(u.dot(u)))
    if r == 0.0:
        return _Forward(X, Z, w, S, u, r, _first_basis(W.shape[0]), True)
    return _Forward(X, Z, w, S, u, r, u / r, False)


def _backward(c: _Forward, g: np.ndarray) -> np.ndarray:
    """dL/dW given dL/df, chaining the normalization and norm weighting."""
    if c.degenerate:
        return np.zeros((g.shape[0], c.X.shape[1]))
    f, r, u, S, Z, w = c.f, c.r, c.u, c.S, c.Z, c.w
    h = (g - f * float(f.dot(g))) / r  # dL/du
    zh = Z @ h  # (n,)
    uh = float(u.dot(h))
    if np.minimum.reduce(w) > 0.0:
        zhat = Z / w[:, None]
    else:  # zero rows have no direction; their zhat is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            zhat = np.where(w[:, None] > 0, Z / np.where(w[:, None] > 0, w[:, None], 1.0), 0.0)
    dZ = (w[:, None] * h[None, :] + zhat * (zh - uh)[:, None]) / S
    return dZ.T @ c.X  # (e, d)


class _Forwards:
    """Forward passes under one projection, one per view object, so that a
    view occurring several times in a step is projected once. The memo holds
    each view, so its id cannot be reused while the memo lives."""

    __slots__ = ("W", "_memo")

    def __init__(self, W: np.ndarray):
        self.W = W
        self._memo: dict[int, tuple[ViewImage, _Forward]] = {}

    def __call__(self, view: ViewImage) -> _Forward:
        hit = self._memo.get(id(view))
        if hit is None:
            hit = self._memo[id(view)] = (view, _forward(view.desc, self.W))
        return hit[1]

    @classmethod
    def of(cls, model: EmbeddingModel, forwards: _Forwards | None) -> _Forwards:
        if forwards is None:
            return cls(model.projection)
        if forwards.W is not model.projection:
            raise ValueError("forward passes belong to another projection")
        return forwards


def aggregate(view: ViewImage, model: EmbeddingModel) -> np.ndarray:
    """Unit global descriptor of a view (first basis vector when degenerate)."""
    return _forward(view.desc, model.projection).f


# ---------------------------------------------------------------------------
# losses and their gradients
# ---------------------------------------------------------------------------


def _pair_term(fq: np.ndarray, fp: np.ndarray) -> float:
    d = fq - fp
    return float(d.dot(d))


class _Phi:
    """Family-mean descriptor of one role, kept for its backward."""

    __slots__ = ("members", "phi", "r", "degenerate")

    def __init__(self, members, phi, r, degenerate):
        self.members, self.phi, self.r, self.degenerate = members, phi, r, degenerate


def _phi_forward(members: tuple[_Forward, ...]) -> _Phi:
    """Mean of member descriptors, renormalized; a singleton passes through
    untouched so K=0 reduces exactly to the plain contrastive loss."""
    if len(members) == 1:
        return _Phi(members, members[0].f, None, False)
    m = np.add.reduce(np.array([c.f for c in members]), axis=0) / len(members)  # np.mean
    r = math.sqrt(float(m.dot(m)))
    if r == 0.0:
        return _Phi(members, _first_basis(m.shape[0]), r, True)
    return _Phi(members, m / r, r, False)


def _phi_backward(pc: _Phi, g: np.ndarray) -> np.ndarray:
    """dL/dW given dL/dphi: the member backwards added once per occurrence,
    in order. Every member gets the same gradient, so a forward pass that
    occurs several times (the positive role is one view K+1 times) has its
    backward computed once and added at each occurrence."""
    if len(pc.members) == 1:
        return _backward(pc.members[0], g)
    if pc.degenerate:
        return np.zeros((g.shape[0], pc.members[0].X.shape[1]))
    phi, r = pc.phi, pc.r
    gm = (g - phi * float(phi.dot(g))) / r
    per_member = gm / len(pc.members)
    grads: dict[int, np.ndarray] = {}
    for c in pc.members:
        if id(c) not in grads:
            grads[id(c)] = _backward(c, per_member)
    dW = grads[id(pc.members[0])]
    for c in pc.members[1:]:
        dW = dW + grads[id(c)]
    return dW


def _family_views(family: list[TrainingTuple], views: Views, fwd: _Forwards) -> list[_Phi]:
    """Role descriptors of an original-plus-synthetics tuple family: the
    family means of its queries, of its positives (one per tuple) and of
    each negative slot, in that order."""
    if not family:
        raise ValueError("empty tuple set")
    base = family[0]
    for t in family[1:]:
        if t.positive_id != base.positive_id or len(t.negative_ids) != len(base.negative_ids):
            raise ValueError("mismatched tuple family")
    members = [[fwd(v) for v in _tuple_views(views, t)] for t in family]
    return [_phi_forward(role) for role in zip(*members)]


def _contrastive(dW: np.ndarray, roles: list[_Phi], margin: float, weight: float, k: int) -> float:
    """Contrastive loss of one family's role descriptors (`_family_views`):
    the positive term scaled by `weight`, the hinge of each negative slot
    unweighted. Adds dLoss/dW / k into `dW`, dividing each backward's
    argument by k."""
    pc_q, pc_p, *pc_ns = roles
    phi_q, phi_p = pc_q.phi, pc_p.phi
    term = weight * _pair_term(phi_q, phi_p)
    gq = weight * 2.0 * (phi_q - phi_p)
    dW += _phi_backward(pc_p, -weight * 2.0 * (phi_q - phi_p) / k)
    for pc_n in pc_ns:
        phi_n = pc_n.phi
        h = margin - _pair_term(phi_q, phi_n)
        if h > 0.0:
            term += h
            gq += -2.0 * (phi_q - phi_n)
            dW += _phi_backward(pc_n, 2.0 * (phi_q - phi_n) / k)
    dW += _phi_backward(pc_q, gq / k)
    return term


def multi_value_and_grad(
    tuples: list[TrainingTuple],
    views: Views,
    model: EmbeddingModel,
    margin: float,
    forwards: _Forwards | None = None,
) -> tuple[float, np.ndarray]:
    """Mean over the tuples of the weighted contrastive loss: each positive
    term scaled by the tuple weight, hinges unweighted; and its dLoss/dW.
    Each tuple is a one-tuple family. `forwards` may carry passes already
    made under `model.projection`."""
    if not tuples:
        raise ValueError("empty tuple set")
    fwd = _Forwards.of(model, forwards)
    k = len(tuples)
    total = 0.0
    dW = np.zeros_like(model.projection)
    for t in tuples:
        total += _contrastive(dW, _family_views([t], views, fwd), margin, t.weight, k)
    return total / k, dW


def aggregated_value_and_grad(
    family: list[TrainingTuple],
    views: Views,
    model: EmbeddingModel,
    margin: float,
    forwards: _Forwards | None = None,
) -> tuple[float, np.ndarray]:
    """Contrastive loss over the family-mean descriptors of each role, and
    its dLoss/dW. `baseline` and `swap_pi` train through a one-tuple family:
    a singleton mean is the member's own descriptor and its backward is the
    member's own backward, so the loss and gradient are exactly those of the
    plain contrastive loss, bit for bit. `forwards` may carry passes already
    made under `model.projection`."""
    fwd = _Forwards.of(model, forwards)
    dW = np.zeros_like(model.projection)
    return _contrastive(dW, _family_views(family, views, fwd), margin, 1.0, 1), dW


# ---------------------------------------------------------------------------
# mining, tuple construction, sampling
# ---------------------------------------------------------------------------


def mine_negatives(
    query_id: int,
    positive_id: int,
    pool_ids: list[int],
    pool_embeddings: np.ndarray,
    query_embedding: np.ndarray,
    m: int,
    observers: dict[int, set[int]],
) -> list[int]:
    """The M pool views most similar to the query that share no landmark with
    the query or the positive, per `observers`, which maps each view id to
    the ids of the views that share a landmark with it, itself included when
    it sees one.
    Similarity is the dot product of a row of `pool_embeddings` (one per
    pool id) with `query_embedding`. Ties break to the lower view id."""
    near_q = observers[query_id]
    near_p = observers[positive_id]
    idx = [i for i, vid in enumerate(pool_ids) if vid not in near_q and vid not in near_p]
    if len(idx) < m:
        raise InsufficientNegativesError(
            f"insufficient negatives: {len(idx)} eligible, {m} requested"
        )
    vids = np.array(pool_ids)[idx]
    # one dot product per row, each rounding as `row.dot(query_embedding)`
    sims = (pool_embeddings[idx][:, None, :] @ query_embedding[:, None])[:, 0, 0]
    return vids[np.lexsort((vids, -sims))[:m]].tolist()


def synthetic_families(
    views: Views, scores: Scores, c_tau: float
) -> Callable[[TrainingTuple], list[tuple[str, float]]]:
    """A function from an original tuple to its valid synthetic family: the
    prompts, with their score values and in prompt order, whose pair score
    passes `c_tau` and under which the query and every negative have a
    variant in `views`. What does not depend on the negatives is worked out
    once: each (query, positive) pair's entries that pass `c_tau` and have a
    query variant, and each view's prompts. The tuples themselves are built by
    `sample_tuples`, only for the prompts it draws."""
    prompts_of: dict[int, set[str]] = {}
    for view_id, prompt in views:
        if prompt is not None:
            prompts_of.setdefault(view_id, set()).add(prompt)
    by_pair: dict[tuple[int, int], list[tuple[str, float]]] = {}
    for (q, p, prompt), score in sorted(scores.items()):
        if prompt in prompts_of.get(q, ()) and validate_pair(score, c_tau):
            by_pair.setdefault((q, p), []).append((prompt, score.value))

    def family(t: TrainingTuple) -> list[tuple[str, float]]:
        negatives = [prompts_of.get(n, ()) for n in t.negative_ids]
        return [
            entry
            for entry in by_pair.get((t.query_id, t.positive_id), [])
            if all(entry[0] in prompts for prompts in negatives)
        ]

    return family


def _draw(rng: np.random.Generator, family: list[tuple[str, float]], sampling: str) -> int:
    if sampling == "geometry_aware":
        inv = np.array([1.0 / s for _, s in family])
        probs = inv / inv.sum()
        # `rng.choice(len(family), p=probs)`'s own steps without its checks:
        # the same one uniform draw and the same index, bit for bit.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    return int(rng.integers(len(family)))


def sample_tuples(
    t: TrainingTuple,
    family: list[tuple[str, float]],
    config: TrainConfig,
    rng: np.random.Generator,
) -> list[TrainingTuple]:
    """Tuples used for one training step, per the configured mode.

    swap_pi: the original with probability 1 - pi, else one synthetic tuple.
    multi_k / aggregated_k: the original plus up to K synthetic tuples drawn
    without replacement. geometry_aware sampling draws prompts with
    probability proportional to 1/score. Falls back to the original alone
    when no valid synthetic tuple exists. `family` is `synthetic_families`'s
    (prompt, score) list; a tuple is built only for each prompt drawn, as
    the original with that prompt and the score as its weight, so that
    `_tuple_views` substitutes the query and every negative and keeps the
    positive original.
    """
    if config.mode == "baseline" or not family:
        return [t]
    if config.mode == "swap_pi":
        if rng.random() < config.swap_probability:
            prompt, weight = family[_draw(rng, family, config.sampling)]
            return [replace(t, prompt=prompt, weight=weight)]
        return [t]
    chosen = [t]  # multi_k / aggregated_k
    remaining = list(family)
    for _ in range(min(config.num_variants, len(remaining))):
        idx = _draw(rng, remaining, config.sampling)
        prompt, weight = remaining.pop(idx)
        chosen.append(replace(t, prompt=prompt, weight=weight))
    return chosen


# ---------------------------------------------------------------------------
# training loop, model averaging, diagnostics
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    episode: int
    mean_loss: float
    synth_fraction: float


def check_trainable(world: World, config: TrainConfig) -> dict[int, set[int]]:
    """A world without matching pairs leaves nothing to train on
    (DataError). The projection may not be wider than the world's
    descriptors, and some matching pair must have `num_negatives` map views
    that share no landmark with either of its views, or no step can be
    taken (ConfigError). Returns the observer sets `mine_negatives` reads."""
    if not world.matching_pairs:
        raise DataError("world has no matching pairs")
    d = world.landmarks.descriptors.shape[1]
    if config.embedding_dim > d:
        raise ConfigError(
            f"train.embedding_dim {config.embedding_dim} exceeds the descriptor dim {d}"
        )
    observers = {v.id: {v.id} if (v.lid >= 0).any() else set() for v in world.map_views}
    for a, b in shared_landmarks(world.map_views):
        observers[a].add(b)
        observers[b].add(a)
    n = len(world.map_views)
    if all(n - len(observers[a] | observers[b]) < config.num_negatives for a, b, _ in world.matching_pairs):
        raise ConfigError(
            f"train.num_negatives {config.num_negatives}: no matching pair has that many "
            "map views that share no landmark with either of its views"
        )
    return observers


def train(
    world: World,
    variants: dict[int, list[ViewImage]] | None,
    scores: Scores | None,
    config: TrainConfig,
) -> tuple[EmbeddingModel, list[TraceRow]]:
    """Episodic training: per episode, sample matching pairs and a mining
    pool and embed the pool with the episode-start model. Per pair, embed the
    query with the current model, mine hard negatives against the pool
    embeddings, build the configured tuples and take one gradient step; a
    pair with too few eligible negatives is skipped, and a run of one or more
    episodes in which every pair is skipped is a ConfigError. Deterministic
    for a fixed (world, config) including the seed."""
    observers = check_trainable(world, config)
    if config.mode != "baseline" and (variants is None or scores is None):
        raise ValueError(f"mode {config.mode!r} needs variants and scores")
    d = world.landmarks.descriptors.shape[1]

    views = _training_views(world, variants)
    model = init_model(d, config.embedding_dim, derive_seed(config.seed, 201))
    rng = np.random.default_rng(derive_seed(config.seed, 202))
    map_ids = sorted(v.id for v in world.map_views)
    families = (
        synthetic_families(views, scores, config.c_tau) if config.mode != "baseline" else None
    )
    value_and_grad = multi_value_and_grad if config.mode == "multi_k" else aggregated_value_and_grad

    trace: list[TraceRow] = []
    steps = 0
    for episode in range(config.episodes):
        lr = LEARNING_RATE * 0.5 * (1.0 + math.cos(math.pi * episode / max(config.episodes, 1)))
        pool_size = min(config.negative_pool_size, len(map_ids))
        pool_ids = sorted(int(i) for i in rng.choice(map_ids, size=pool_size, replace=False))
        pool_emb = np.array([aggregate(views[(vid, None)], model) for vid in pool_ids])

        pair_idx = rng.integers(len(world.matching_pairs), size=config.pairs_per_episode)

        losses = []
        synth_used = 0
        tuples_used = 0
        for pi in pair_idx:
            a, b, _ = world.matching_pairs[int(pi)]
            q_id, p_id = (a, b) if rng.random() < 0.5 else (b, a)
            # the query's pass serves both the mining and the step below
            forwards = _Forwards(model.projection)
            try:
                negs = mine_negatives(
                    q_id, p_id, pool_ids, pool_emb, forwards(views[(q_id, None)]).f,
                    config.num_negatives, observers,
                )
            except InsufficientNegativesError:
                continue
            original = TrainingTuple(query_id=q_id, positive_id=p_id, negative_ids=negs)
            family = families(original) if families is not None else []
            chosen = sample_tuples(original, family, config, rng)
            synth_used += sum(1 for c in chosen if c.prompt is not None)
            tuples_used += len(chosen)

            loss, dW = value_and_grad(chosen, views, model, MARGIN, forwards)
            if not np.isfinite(loss):
                raise DataError("diverged")
            model.projection = (1.0 - lr * WEIGHT_DECAY) * model.projection - lr * dW
            losses.append(loss)
        steps += len(losses)

        trace.append(
            TraceRow(
                episode=episode,
                mean_loss=float(np.mean(losses)) if losses else 0.0,
                synth_fraction=synth_used / tuples_used if tuples_used else 0.0,
            )
        )
    if config.episodes > 0 and steps == 0:
        raise ConfigError(
            f"train.num_negatives {config.num_negatives}: "
            "no sampled training pair has that many eligible negatives"
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
