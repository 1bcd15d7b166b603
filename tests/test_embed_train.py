from dataclasses import replace

import numpy as np
import pytest

from synthloc.embed import (
    TrainConfig,
    _draw,
    TrainingTuple,
    _training_views,
    _tuple_views,
    aggregate,
    check_trainable,
    init_model,
    mine_negatives,
    sample_tuples,
    synthetic_families,
    train,
)
from synthloc.errors import ConfigError, InsufficientNegativesError
from synthloc.geometry import ConsistencyScore
from synthloc.variants import apply_variant

from conftest import identity_shift, landmark_set, make_view


# ---------------------------------------------------------------- mining


def _world_views(world):
    return {v.id: v for v in world.map_views}


def _embed(views, ids, model):
    return np.array([aggregate(views[vid], model) for vid in ids])


def _observers(coobs):
    """Each view's co-observers by brute force: the views whose landmark
    sets meet its own, itself included when it sees a landmark."""
    return {a: {b for b in coobs if coobs[a] & coobs[b]} for a in coobs}


def test_mine_negatives_brute_force(small_world):
    views = _world_views(small_world)
    coobs = {vid: landmark_set(v) for vid, v in views.items()}
    model = init_model(16, 8, seed=0)
    q_id, p_id, _ = small_world.matching_pairs[0]  # pair at one street end
    pool = sorted(views)
    m = 3
    fq = aggregate(views[q_id], model)
    got = mine_negatives(q_id, p_id, pool, _embed(views, pool, model), fq, m, _observers(coobs))

    eligible = [
        vid
        for vid in pool
        if not (coobs[vid] & coobs[q_id]) and not (coobs[vid] & coobs[p_id])
    ]
    sims = {vid: float(np.dot(aggregate(views[vid], model), fq)) for vid in eligible}
    expected = sorted(eligible, key=lambda v: (-sims[v], v))[:m]
    assert got == expected


def test_mine_negatives_excludes_coobservers(small_world):
    views = _world_views(small_world)
    coobs = {vid: landmark_set(v) for vid, v in views.items()}
    model = init_model(16, 8, seed=0)
    q_id, p_id, _ = small_world.matching_pairs[0]
    pool = sorted(views)
    negs = mine_negatives(
        q_id, p_id, pool, _embed(views, pool, model), aggregate(views[q_id], model), 3,
        _observers(coobs),
    )
    for n in negs:
        assert not (coobs[n] & coobs[q_id])
        assert not (coobs[n] & coobs[p_id])
    assert q_id not in negs and p_id not in negs


def test_mine_negatives_pool_exactly_m():
    views = {i: make_view(np.random.default_rng(i), 4, 8, view_id=i) for i in range(5)}
    # disjoint landmark sets via distinct id ranges
    coobs = {0: frozenset({0, 1}), 1: frozenset({2, 3}), 2: frozenset({10}), 3: frozenset({11}), 4: frozenset({12})}
    observers = _observers(coobs)
    model = init_model(8, 4, seed=1)
    pool_emb, fq = _embed(views, [2, 3, 4], model), aggregate(views[0], model)
    got = mine_negatives(0, 1, [2, 3, 4], pool_emb, fq, 3, observers)
    assert sorted(got) == [2, 3, 4]
    with pytest.raises(InsufficientNegativesError):
        mine_negatives(0, 1, [2, 3, 4], pool_emb, fq, 4, observers)


def sorted_key_negatives(query_id, positive_id, pool_ids, pool_embeddings, query_embedding, m, observers):
    """The mining written as a keyed sort over each eligible row's `.dot`."""
    near = observers[query_id] | observers[positive_id]
    eligible = [(i, vid) for i, vid in enumerate(pool_ids) if vid not in near]
    sims = [float(pool_embeddings[i].dot(query_embedding)) for i, _ in eligible]
    order = sorted(range(len(eligible)), key=lambda j: (-sims[j], eligible[j][1]))
    return [eligible[j][1] for j in order[:m]]


def test_mine_negatives_breaks_ties_to_the_lower_id():
    """Tied similarities and pool ids out of order: the negatives are those
    of the keyed sort on (-similarity, id)."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        size = int(rng.integers(1, 30))
        pool_ids = [int(i) for i in rng.permutation(100)[:size]]
        rows = rng.integers(-2, 3, (4, 3)).astype(float)  # few distinct rows: many ties
        pool_emb = rows[rng.integers(0, 4, size)]
        fq = rng.integers(-2, 3, 3).astype(float)
        banned = set(pool_ids[: int(rng.integers(0, 3))])
        observers = {-1: banned | {-1}, -2: {-2}}
        m = int(rng.integers(0, size - len(banned) + 1))
        args = (-1, -2, pool_ids, pool_emb, fq, m, observers)
        assert mine_negatives(*args) == sorted_key_negatives(*args)


@pytest.mark.parametrize("e", [1, 2, 16, 32])
def test_stacked_similarities_equal_each_row_dot(e):
    """The (k, 1, e) @ (e, 1) products `mine_negatives` ranks by round as
    each row's `.dot` with the query, byte for byte."""
    rng = np.random.default_rng(e)
    for scale in (1e-150, 1.0, 1e150):
        pool_emb = rng.standard_normal((40, e)) * scale
        fq = rng.standard_normal(e)
        stacked = (pool_emb[:, None, :] @ fq[:, None])[:, 0, 0]
        assert stacked.tobytes() == np.array([row.dot(fq) for row in pool_emb]).tobytes()


# ---------------------------------------------------------------- synthetic tuples


def _toy_setup():
    """Six original views and a "mild" variant of each, keyed by (view id,
    prompt), and empty scores."""
    views = {(i, None): make_view(np.random.default_rng(i), 5, 8, view_id=i) for i in range(6)}
    for i in range(6):
        views[(i, "mild")] = apply_variant(views[(i, None)], identity_shift("mild", 8), seed=i)
    return views, {}


def test_sample_tuples_builds_synthetic_tuple():
    """A drawn synthetic tuple is the original with the prompt and its score
    as weight; the original is left as it was."""
    t = TrainingTuple(0, 1, [2, 3])
    cfg = TrainConfig(mode="swap_pi", swap_probability=1.0, c_tau=0.2)
    [out] = sample_tuples(t, [("mild", 0.85)], cfg, np.random.default_rng(0))
    assert out.prompt == "mild"
    assert out.weight == 0.85
    assert out.query_id == 0 and out.positive_id == 1 and out.negative_ids == [2, 3]
    assert t == TrainingTuple(0, 1, [2, 3])


def test_synthetic_family_rejects_invalid_score():
    views, scores = _toy_setup()
    scores[(0, 1, "mild")] = ConsistencyScore(0, 20)
    t = TrainingTuple(0, 1, [2, 3])
    assert synthetic_families(views, scores, c_tau=0.2)(t) == []
    assert synthetic_families(views, scores, c_tau=0.0)(t) == [("mild", 0.0)]


def test_synthetic_family_skips_missing_variant():
    views, scores = _toy_setup()
    scores[(0, 1, "unknown prompt")] = ConsistencyScore(18, 20)
    scores[(0, 1, "mild")] = ConsistencyScore(18, 20)
    t = TrainingTuple(0, 1, [2, 3])
    assert synthetic_families(views, scores, c_tau=0.2)(t) == [("mild", 0.9)]
    # a negative without a variant under the prompt drops the prompt too
    partial = {key: v for key, v in views.items() if key != (3, "mild")}
    assert synthetic_families(partial, scores, c_tau=0.2)(t) == []


def test_synthetic_family_filters_by_score():
    views, scores = _toy_setup()
    for i in range(6):
        views[(i, "harsh")] = apply_variant(views[(i, None)], identity_shift("harsh", 8), seed=100 + i)
    scores[(0, 1, "mild")] = ConsistencyScore(18, 20)
    scores[(0, 1, "harsh")] = ConsistencyScore(2, 20)
    t = TrainingTuple(0, 1, [2, 3])
    fam = synthetic_families(views, scores, c_tau=0.2)(t)
    assert fam == [("mild", 0.9)]
    fam0 = synthetic_families(views, scores, c_tau=0.0)(t)
    assert fam0 == [("harsh", 0.1), ("mild", 0.9)]


def test_negative_variants_map_one_to_one(small_world, small_prompts, small_variants, small_scores):
    """Synthetic tuple negatives resolve to their same-prompt variants."""
    a, b, _ = small_world.matching_pairs[0]
    others = [v.id for v in small_world.map_views if v.id not in (a, b)][:3]
    t = TrainingTuple(a, b, others)
    prompt = "in winter"
    views = _training_views(small_world, small_variants)
    assert (prompt, small_scores[(a, b, prompt)].value) in synthetic_families(
        views, small_scores, c_tau=0.0
    )(t)
    out = replace(t, prompt=prompt, weight=small_scores[(a, b, prompt)].value)
    q, p, *ns = _tuple_views(views, out)
    assert q.condition == prompt
    assert p.condition == "original"
    for n, nid in zip(ns, others):
        assert n.condition == prompt
        assert n.id == nid


# ---------------------------------------------------------------- sampling


def _family_with_scores(values):
    return [(f"p{i}", s) for i, s in enumerate(values)]


def test_sample_geometry_aware_probabilities():
    """scores {0.5, 0.25} -> probabilities {1/3, 2/3}."""
    fam = _family_with_scores([0.5, 0.25])
    cfg = TrainConfig(mode="swap_pi", swap_probability=1.0, sampling="geometry_aware", c_tau=0.2)
    rng = np.random.default_rng(0)
    counts = {"p0": 0, "p1": 0}
    n = 100_000
    orig = TrainingTuple(0, 1, [2, 3])
    for _ in range(n):
        chosen = sample_tuples(orig, fam, cfg, rng)[0]
        counts[chosen.prompt] += 1
    assert abs(counts["p0"] / n - 1 / 3) < 0.01
    assert abs(counts["p1"] / n - 2 / 3) < 0.01


def test_geometry_aware_draw_equals_rng_choice():
    """`_draw` takes `rng.choice(len(family), p=probs)`'s steps itself: the
    same index and the same generator state after every draw, over family
    sizes 1-12, scores down to 1e-13 and 300 generator seeds. A family holds
    only scores >= c_tau > 0, so no score is 0."""
    scores_rng = np.random.default_rng(11)
    for seed in range(300):
        size = 1 + seed % 12
        values = scores_rng.uniform(0.0, 1.0, size)
        values[seed % size] = [1 / 997, 1e-13, 1.0, 0.2][seed % 4]
        fam = _family_with_scores(values)
        inv = 1.0 / values
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got = _draw(got_rng, fam, "geometry_aware")
            want = int(want_rng.choice(size, p=inv / inv.sum()))
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_pi_zero_always_original():
    fam = _family_with_scores([0.5, 0.9])
    cfg = TrainConfig(mode="swap_pi", swap_probability=0.0, c_tau=0.2)
    rng = np.random.default_rng(1)
    orig = TrainingTuple(0, 1, [2, 3])
    for _ in range(100):
        assert sample_tuples(orig, fam, cfg, rng) == [orig]


def test_sample_pi_half_fraction():
    fam = _family_with_scores([0.5, 0.9])
    cfg = TrainConfig(mode="swap_pi", swap_probability=0.5, c_tau=0.2)
    rng = np.random.default_rng(2)
    orig = TrainingTuple(0, 1, [2, 3])
    n = 10_000
    synth = sum(sample_tuples(orig, fam, cfg, rng)[0].prompt is not None for _ in range(n))
    assert abs(synth / n - 0.5) < 0.02


def test_sample_no_valid_family_falls_back():
    cfg = TrainConfig(mode="swap_pi", swap_probability=1.0, c_tau=0.2)
    orig = TrainingTuple(0, 1, [2, 3])
    assert sample_tuples(orig, [], cfg, np.random.default_rng(3)) == [orig]


def test_sample_multi_k_without_replacement():
    fam = _family_with_scores([0.5, 0.6, 0.7])
    cfg = TrainConfig(mode="multi_k", num_variants=2, c_tau=0.2)
    rng = np.random.default_rng(4)
    orig = TrainingTuple(0, 1, [2, 3])
    for _ in range(50):
        chosen = sample_tuples(orig, fam, cfg, rng)
        assert chosen[0] is orig
        prompts = [c.prompt for c in chosen[1:]]
        assert len(prompts) == 2
        assert len(set(prompts)) == 2
        # each drawn tuple is built with its prompt's score as weight
        assert all(c.weight == dict(fam)[c.prompt] for c in chosen[1:])
    # K larger than family: everything used once
    cfg_big = TrainConfig(mode="multi_k", num_variants=10, c_tau=0.2)
    chosen = sample_tuples(orig, fam, cfg_big, rng)
    assert len(chosen) == 4


def test_geometry_aware_requires_filtering():
    with pytest.raises(ValueError):
        TrainConfig(mode="multi_k", sampling="geometry_aware", c_tau=0.0)


# ---------------------------------------------------------------- training


def test_train_zero_episodes_returns_init(small_world):
    from synthloc.worldgen import derive_seed

    cfg = TrainConfig(episodes=0, seed=5)
    model, trace = train(small_world, None, None, cfg)
    expected = init_model(16, cfg.embedding_dim, derive_seed(5, 201))
    assert np.array_equal(model.projection, expected.projection)
    assert trace == []


def test_train_trace_finite_and_sized(small_world):
    cfg = TrainConfig(episodes=4, pairs_per_episode=20, negative_pool_size=16, num_negatives=3, seed=1)
    model, trace = train(small_world, None, None, cfg)
    assert len(trace) == 4
    assert all(np.isfinite(row.mean_loss) for row in trace)
    assert all(row.synth_fraction == 0.0 for row in trace)
    assert np.all(np.isfinite(model.projection))


def test_train_deterministic(small_world):
    cfg = TrainConfig(episodes=3, pairs_per_episode=15, negative_pool_size=16, num_negatives=3, seed=9)
    m1, t1 = train(small_world, None, None, cfg)
    m2, t2 = train(small_world, None, None, cfg)
    assert np.array_equal(m1.projection, m2.projection)
    assert t1 == t2


def test_train_loss_decreases_median(small_world):
    """Median over 5 seeds: final episode mean loss below the first."""
    deltas = []
    for seed in range(5):
        cfg = TrainConfig(
            episodes=6, pairs_per_episode=30, negative_pool_size=16, num_negatives=3, seed=seed
        )
        _, trace = train(small_world, None, None, cfg)
        deltas.append(trace[-1].mean_loss - trace[0].mean_loss)
    assert np.median(deltas) < 0.0


def test_train_synth_fraction_tracked(small_world, small_variants, small_scores):
    cfg = TrainConfig(
        mode="swap_pi", swap_probability=0.5, episodes=3, pairs_per_episode=30,
        negative_pool_size=16, num_negatives=3, seed=2, c_tau=0.2,
    )
    _, trace = train(small_world, small_variants, small_scores, cfg)
    fracs = [row.synth_fraction for row in trace]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert np.mean(fracs) > 0.2  # pi = 0.5 with mostly valid families


def test_train_multi_k_runs(small_world, small_variants, small_scores):
    cfg = TrainConfig(
        mode="multi_k", num_variants=2, episodes=2, pairs_per_episode=10,
        negative_pool_size=16, num_negatives=2, seed=3, c_tau=0.2, sampling="geometry_aware",
    )
    model, trace = train(small_world, small_variants, small_scores, cfg)
    assert np.all(np.isfinite(model.projection))


def test_train_aggregated_runs(small_world, small_variants, small_scores):
    cfg = TrainConfig(
        mode="aggregated_k", num_variants=2, episodes=2, pairs_per_episode=10,
        negative_pool_size=16, num_negatives=2, seed=4, c_tau=0.2,
    )
    model, trace = train(small_world, small_variants, small_scores, cfg)
    assert np.all(np.isfinite(model.projection))


def test_check_trainable_observers_and_negatives(small_world):
    """`check_trainable` returns each map view's co-observers, and refuses a
    `num_negatives` that no matching pair has enough views sharing no
    landmark with it for; as many as the best pair has are accepted."""
    observers = check_trainable(small_world, TrainConfig(num_negatives=1))
    assert observers == _observers({v.id: landmark_set(v) for v in small_world.map_views})
    n = len(small_world.map_views)
    most = max(n - len(observers[a] | observers[b]) for a, b, _ in small_world.matching_pairs)
    check_trainable(small_world, TrainConfig(num_negatives=most))
    with pytest.raises(ConfigError, match=f"train.num_negatives {most + 1}: no matching pair"):
        check_trainable(small_world, TrainConfig(num_negatives=most + 1))


def test_train_refuses_a_run_without_a_step(small_world):
    """A run in which every sampled pair finds too few negatives in its
    pool takes no step: a ConfigError once the episodes are done. Here
    each 3-view pool must miss every co-observer of the one sampled pair."""
    cfg = TrainConfig(episodes=1, pairs_per_episode=1, negative_pool_size=3, num_negatives=3)
    check_trainable(small_world, cfg)
    with pytest.raises(ConfigError, match="no sampled training pair has that many eligible negatives"):
        train(small_world, None, None, cfg)


def test_train_synth_mode_requires_stores(small_world):
    cfg = TrainConfig(mode="swap_pi", episodes=1, pairs_per_episode=5)
    with pytest.raises(ValueError, match="variants and scores"):
        train(small_world, None, None, cfg)
