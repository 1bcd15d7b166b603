"""Acceptance gate: one test per criterion, each at its stated tolerance.
A per-criterion PASS/FAIL summary is printed at the end of the session."""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from synthloc.cli import main as cli_main
from synthloc.embed import (
    EmbeddingModel,
    TrainConfig,
    TrainingTuple,
    _tuple_views,
    aggregate,
    aggregated_value_and_grad,
    init_model,
    multi_value_and_grad,
    sample_tuples,
    train,
)
from synthloc.fanout import _fan_out
from synthloc.geometry import (
    ConsistencyScore,
    MatchParams,
    consistency_score,
    score_world_variants,
)
from synthloc.index import (
    asmk_score,
    build_index,
    retrieve,
    train_codebook,
)
from synthloc.localize import (
    PLACE_RECOGNITION_RADIUS_M,
    AccuracyThresholds,
    RansacParams,
    ewb_pose,
    localization_rate,
    pnp_ransac,
    pose_error,
    recall_at_k,
)
from synthloc.variants import (
    apply_variant,
    default_prompt_set,
    generate_all_variants,
    identity_shift,
    shift_queries,
)
from synthloc.worldgen import (
    CameraIntrinsics,
    CameraPose,
    WorldConfig,
    generate_world,
    project_points,
)
from synthloc import quats

from conftest import make_view, perturbed


# ------------------------------------------------------------------ helpers


def _random_instance(rng, d=6, e=3, margin=0.7, with_variant=True, kink_gap=1e-3):
    """Random small tuple family whose hinges are safely away from the kink
    (central differences cannot straddle max(0, .) there)."""
    while True:
        n_views = 6
        views = {
            (i, None): make_view(np.random.default_rng(int(rng.integers(1 << 30))), int(rng.integers(1, 6)), d, view_id=i)
            for i in range(n_views)
        }
        for i in range(n_views):
            views[(i, "shift")] = make_view(
                np.random.default_rng(int(rng.integers(1 << 30))),
                int(rng.integers(1, 6)),
                d,
                view_id=i,
                condition="shift",
            )
        m = int(rng.integers(1, 4))
        negatives = list(range(2, 2 + m))
        original = TrainingTuple(0, 1, negatives)
        synth = TrainingTuple(0, 1, negatives, prompt="shift", weight=float(rng.uniform(0.1, 1.0)))
        W = rng.standard_normal((e, d))
        model = EmbeddingModel(W.copy())

        safe = True
        for fam in ([original], [original, synth]):
            for t in fam:
                q, _, *ns = _tuple_views(views, t)
                fq = aggregate(q, model)
                for n in ns:
                    gap = abs(margin - float(np.sum((fq - aggregate(n, model)) ** 2)))
                    if gap < kink_gap:
                        safe = False
        if safe:
            return views, original, synth, W


def _finite_difference(fn, W, h=1e-5):
    g = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp = W.copy()
            Wp[i, j] += h
            Wm = W.copy()
            Wm[i, j] -= h
            g[i, j] = (fn(Wp) - fn(Wm)) / (2 * h)
    return g


def _rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


# ------------------------------------------------------------------ criteria


def test_criterion_1_gradients_match_finite_differences():
    """Analytic vs central differences (h=1e-5), >=100 instances per loss,
    max relative error < 1e-4, in under 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    margin = 0.7
    worst = {"contrastive": 0.0, "multi": 0.0, "aggregated": 0.0}
    for _ in range(100):
        views, original, synth, W = _random_instance(rng, margin=margin)
        model = EmbeddingModel(W.copy())

        # the contrastive loss is the one-tuple family that baseline and
        # swap_pi train through
        single = [original]
        _, g = aggregated_value_and_grad(single, views, model, margin)
        gfd = _finite_difference(
            lambda Wx: aggregated_value_and_grad(single, views, EmbeddingModel(Wx), margin)[0], W
        )
        worst["contrastive"] = max(worst["contrastive"], _rel_err(g, gfd))

        fam = [original, synth]
        _, g = multi_value_and_grad(fam, views, model, margin)
        gfd = _finite_difference(
            lambda Wx: multi_value_and_grad(fam, views, EmbeddingModel(Wx), margin)[0], W
        )
        worst["multi"] = max(worst["multi"], _rel_err(g, gfd))

        _, g = aggregated_value_and_grad(fam, views, model, margin)
        gfd = _finite_difference(
            lambda Wx: aggregated_value_and_grad(fam, views, EmbeddingModel(Wx), margin)[0], W
        )
        worst["aggregated"] = max(worst["aggregated"], _rel_err(g, gfd))
    elapsed = time.time() - t0
    assert worst["contrastive"] < 1e-4
    assert worst["multi"] < 1e-4
    assert worst["aggregated"] < 1e-4
    assert elapsed < 30.0


def test_criterion_2_loss_reductions_bitwise():
    """The multi loss at k=1, w=1 and the aggregated loss at K=0 both reduce
    to the contrastive loss: equal values and gradients, bit for bit, on 50
    random tuples."""
    rng = np.random.default_rng(202)
    for _ in range(50):
        resolver, original, _, W = _random_instance(rng)
        model = EmbeddingModel(W)
        loss_m, grad_m = multi_value_and_grad([original], resolver, model, 0.7)
        loss_a, grad_a = aggregated_value_and_grad([original], resolver, model, 0.7)
        assert loss_m == loss_a
        assert np.array_equal(grad_m, grad_a)


def test_criterion_3_consistency_extremes_and_oracle():
    """Identity variant s=1.0, full dropout s=0.0, and exact agreement with
    the brute-force intersection oracle on 20 seeded 50-feature pairs."""
    params = MatchParams()

    def paired_views(rng, n=50, d=16, noise=0.01):
        q = make_view(rng, n, d, view_id=0, n_clutter=4)
        p = make_view(rng, n, d, view_id=1, n_clutter=4)
        desc = np.vstack([perturbed(rng, q.desc[:n], noise), p.desc[n:]])
        return q, dataclasses.replace(p, desc=desc)

    rng = np.random.default_rng(303)
    q, p = paired_views(rng)
    same = apply_variant(q, identity_shift("same", 16), seed=0)
    assert consistency_score(q, p, same, params).value == 1.0

    dead = identity_shift("dead", 16)
    dead.dropout_rate = 1.0
    dead.clutter_rate = 0.2
    gone = apply_variant(q, dead, seed=0)
    assert consistency_score(q, p, gone, params).value == 0.0

    def brute_force(q, p, variant):
        def mutual_nn(a, b):
            da, db = a.descriptors(), b.descriptors()
            dist = np.linalg.norm(da[:, None, :] - db[None, :, :], axis=2)
            pairs = []
            for i in range(da.shape[0]):
                j = int(np.argmin(dist[i]))
                if int(np.argmin(dist[:, j])) != i:
                    continue

                def ok(row):
                    if row.size < 2:
                        return True
                    two = np.sort(row)[:2]
                    return two[0] <= params.ratio * two[1]

                if ok(dist[i, :]) and ok(dist[:, j]):
                    pairs.append((i, j))
            return pairs

        def aoi(pairs, a, b):
            la, lb = a.lid, b.lid
            return [(i, j) for (i, j) in pairs if la[i] >= 0 and lb[j] >= 0]

        c_qp = aoi(mutual_nn(q, p), q, p)
        c_vp = aoi(mutual_nn(variant, p), variant, p)
        if not c_qp:
            return ConsistencyScore(0.0, 0, 0)
        kp = p.kp
        kept = sum(
            1
            for (_, j) in c_qp
            if any(np.linalg.norm(kp[j] - kp[j2]) <= params.pixel_tol for (_, j2) in c_vp)
        )
        return ConsistencyScore(kept / len(c_qp), kept, len(c_qp))

    shift = default_prompt_set(16, 0).by_name("in winter")
    for trial in range(20):
        rng = np.random.default_rng(400 + trial)
        q, p = paired_views(rng)
        variant = apply_variant(q, shift, seed=trial)
        got = consistency_score(q, p, variant, params)
        want = brute_force(q, p, variant)
        assert (got.value, got.kept, got.original) == (want.value, want.kept, want.original)


def test_criterion_4_filtering_and_sampling_laws():
    """Valid-set monotonicity in tau; geometry-aware frequencies match the
    normalized 1/s law within +-0.01 over 1e5 draws; swap mode hits
    pi = 0.5 +- 0.02 over 1e4 draws."""
    # monotone valid sets on real scored variants
    world = generate_world(WorldConfig(num_landmarks=250, descriptor_dim=16, num_map_views=16,
                                       num_query_views=4, street_length=80.0), seed=3)
    prompts = default_prompt_set(16, 0)
    variants = generate_all_variants(world, prompts, 0)
    scores = score_world_variants(world, variants, MatchParams())
    valid02 = {k for k, s in scores.items() if s.value >= 0.2}
    valid03 = {k for k, s in scores.items() if s.value >= 0.3}
    assert valid03 <= valid02

    # geometry-aware sampling frequencies: scores {0.5, 0.25} -> {1/3, 2/3}
    fam = [("a", 0.5), ("b", 0.25)]  # a synthetic family's (prompt, score) entries
    cfg = TrainConfig(mode="swap_pi", swap_probability=1.0, sampling="geometry_aware", c_tau=0.2)
    rng = np.random.default_rng(404)
    orig = TrainingTuple(0, 1, [2])
    n = 100_000
    counts = {"a": 0, "b": 0}
    for _ in range(n):
        counts[sample_tuples(orig, fam, cfg, rng)[0].prompt] += 1
    assert abs(counts["a"] / n - 1 / 3) <= 0.01
    assert abs(counts["b"] / n - 2 / 3) <= 0.01

    # swap fraction pi = 0.5 +- 0.02 over 1e4 draws
    cfg_pi = TrainConfig(mode="swap_pi", swap_probability=0.5, c_tau=0.2)
    rng = np.random.default_rng(405)
    m = 10_000
    synth = sum(sample_tuples(orig, fam, cfg_pi, rng)[0].prompt is not None for _ in range(m))
    assert abs(synth / m - 0.5) <= 0.02


def test_criterion_5_protocol_constants():
    """Accuracy buckets, EWB top-1 equivalence, place-recognition radius."""
    thr = AccuracyThresholds()
    assert thr.levels == [("high", 0.25, 2.0), ("mid", 0.5, 5.0), ("low", 5.0, 10.0)]

    rng = np.random.default_rng(505)
    poses = {}
    for i in range(6):
        axis = rng.standard_normal(3)
        poses[i] = CameraPose(
            quats.from_axis_angle(axis, rng.uniform(0, 1.0)), rng.uniform(-5, 5, 3)
        )
    ranked = [(4, 0.99), (2, 0.98), (0, 0.97)]
    est = ewb_pose(ranked, poses, k=1)
    assert np.array_equal(est.position, poses[4].position)
    assert np.array_equal(est.rotation, poses[4].rotation)

    assert PLACE_RECOGNITION_RADIUS_M == 25.0
    import inspect

    assert inspect.signature(recall_at_k).parameters["radius"].default == 25.0


def test_criterion_6_pnp_recovery():
    """Planted-pose recovery: 1e-6 m / 1e-5 deg exact, 1e-3 m with 50%
    outliers, 100 seeds each, under 10 s."""
    t0 = time.time()
    intr = CameraIntrinsics(400.0, np.array([320.0, 240.0]), (640, 480))
    rng = np.random.default_rng(606)
    for trial in range(100):
        axis = rng.standard_normal(3)
        pose = CameraPose(quats.from_axis_angle(axis, rng.uniform(0, 0.5)), rng.uniform(-2, 2, 3))
        R = pose.matrix()
        cam = np.column_stack(
            [rng.uniform(-3, 3, 20), rng.uniform(-2, 2, 20), rng.uniform(5, 15, 20)]
        )
        pts = cam @ R + pose.position
        uv, _ = project_points(pts, pose, intr)
        corr = [(uv[i], pts[i]) for i in range(20)]
        est, _ = pnp_ransac(corr, intr, RansacParams(seed=trial))
        err = pose_error(est, pose)
        assert err.translation < 1e-6
        assert err.rotation < 1e-5

        bad_cam = np.column_stack(
            [rng.uniform(-3, 3, 20), rng.uniform(-2, 2, 20), rng.uniform(5, 15, 20)]
        )
        bad_pts = bad_cam @ R + pose.position
        bad_uv = rng.uniform([0, 0], [640, 480], (20, 2))
        noisy = corr + [(bad_uv[i], bad_pts[i]) for i in range(20)]
        est, inliers = pnp_ransac(noisy, intr, RansacParams(inlier_px=2.0, seed=trial))
        assert pose_error(est, pose).translation < 1e-3
        assert inliers == list(range(20))
    assert time.time() - t0 < 10.0


def test_criterion_7_retrieval_sanity():
    """Duplicate query first under both backends; cosine ranking equals the
    exhaustive oracle on 20-view databases; ASMK self-maximal and symmetric
    on 50 random signature pairs."""
    model = init_model(16, 8, seed=7)
    views = [make_view(np.random.default_rng(700 + i), 15, 16, view_id=i) for i in range(20)]
    vectors = np.concatenate([v.descriptors() @ model.projection.T for v in views])
    codebook = train_codebook(vectors, 12, iters=5, seed=0)
    index = build_index(views, model, codebook)
    for backend in ("global_cosine", "asmk"):
        ranked = retrieve(views[13], index, model, backend, k=5)
        assert ranked[0][0] == 13

    for trial in range(5):
        db = [make_view(np.random.default_rng(800 + 50 * trial + i), 12, 16, view_id=i) for i in range(20)]
        query = make_view(np.random.default_rng(900 + trial), 12, 16, view_id=99)
        idx = build_index(db, model)
        ranked = retrieve(query, idx, model, "global_cosine", k=20)
        fq = aggregate(query, model)
        sims = sorted(
            ((float(np.dot(aggregate(v, model), fq)), v.id) for v in db),
            key=lambda t: (-t[0], t[1]),
        )
        assert [vid for vid, _ in ranked] == [vid for _, vid in sims]

    rng = np.random.default_rng(707)
    for _ in range(50):
        def random_sig():
            sig = np.zeros((12, 8), dtype=np.int8)
            for cell in rng.choice(12, size=int(rng.integers(2, 7)), replace=False):
                sig[cell] = rng.choice([-1, 1], size=8)
            return sig

        a, b = random_sig(), random_sig()
        assert asmk_score(a, b) == asmk_score(b, a)
        assert asmk_score(a, a) >= asmk_score(a, b) - 1e-12
        assert asmk_score(b, b) >= asmk_score(a, b) - 1e-12


def test_criterion_8_end_to_end_directional():
    """Training with validated synthetic variants beats the no-synthetic
    baseline on shifted queries (median over 5 seeds), geometry-aware
    filtering is at least as good as unfiltered synthetics, and clean-query
    performance gives up at most 5 points. Full run under 10 minutes. The 15
    (method, seed) trainings are independent, so they fan out over the
    CPUs."""
    t0 = time.time()
    world = generate_world(WorldConfig(), seed=7)  # 500 landmarks, 40+20 views
    prompts = default_prompt_set(32, 0)
    vmap = generate_all_variants(world, prompts, 0)
    scores = score_world_variants(world, vmap, MatchParams())
    queries = shift_queries(world, prompts, ["at night"], 0)
    night_q = [q for q in queries if q.condition == "at night"]
    clean_q = [q for q in queries if q.condition == "original"]
    assert len(night_q) == 20 and len(clean_q) == 20
    map_poses = {v.id: v.pose for v in world.map_views}
    thresholds = AccuracyThresholds()

    def low_level_rates(model):
        index = build_index(world.map_views, model)
        out = {}
        for name, qs in (("clean", clean_q), ("night", night_q)):
            errs = []
            for q in qs:
                ranked = retrieve(q, index, model, "global_cosine", k=1)
                errs.append(pose_error(ewb_pose(ranked, map_poses, 1), q.pose))
            out[name] = localization_rate(errs, thresholds)["low"]
        return out

    methods = {
        "baseline": ("baseline", 0.2, "uniform"),
        "uniform": ("multi_k", 0.0, "uniform"),
        "geometry": ("multi_k", 0.2, "geometry_aware"),
    }
    # seed-major, so that each CPU's contiguous share mixes the cheaper
    # baseline trainings with the synthetic ones
    runs = [(method, seed) for seed in (1, 2, 3, 4, 5) for method in methods]

    def run(method_seed):
        method, seed = method_seed
        mode, c_tau, sampling = methods[method]
        cfg = TrainConfig(
            mode=mode, c_tau=c_tau, sampling=sampling, seed=seed,
            episodes=16, pairs_per_episode=150, negative_pool_size=40,
            num_variants=2, embedding_dim=16,
        )
        model, trace = train(
            world,
            vmap if mode != "baseline" else None,
            scores if mode != "baseline" else None,
            cfg,
        )
        assert all(np.isfinite(row.mean_loss) for row in trace)
        return low_level_rates(model)

    rates = list(zip(runs, _fan_out(run, runs)))

    def medians(method):
        per_seed = [r for (m, _), r in rates if m == method]
        return tuple(float(np.median([r[name] for r in per_seed])) for name in ("clean", "night"))

    base_clean, base_night = medians("baseline")
    unif_clean, unif_night = medians("uniform")
    geom_clean, geom_night = medians("geometry")

    assert geom_night >= unif_night, (geom_night, unif_night)
    assert unif_night >= base_night, (unif_night, base_night)
    assert geom_night > base_night, (geom_night, base_night)
    assert geom_clean >= base_clean - 5.0, (geom_clean, base_clean)
    assert time.time() - t0 < 600.0


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI stage re-run with identical config+seed writes identical
    bytes."""
    config = {
        "world": {
            "num_landmarks": 250, "descriptor_dim": 16, "num_map_views": 16,
            "num_query_views": 5, "street_length": 80.0,
        },
        "world_seed": 3,
        "train": {
            "mode": "swap_pi", "episodes": 2, "pairs_per_episode": 10,
            "negative_pool_size": 16, "num_negatives": 3, "embedding_dim": 8,
        },
        "seeds": [1, 2],
        "eval_ks": [1, 3],
        "query_conditions": ["at night"],
        "codebook_size": 24,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def digest(root: Path):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    def run(stage_args, out):
        assert cli_main(stage_args + ["--out", str(out)]) == 0
        return digest(out)

    world_a = run(["worldgen", "--config", str(cfg_path)], tmp_path / "w1")
    world_b = run(["worldgen", "--config", str(cfg_path)], tmp_path / "w2")
    assert world_a == world_b

    var_a = run(["variants", "--config", str(cfg_path), "--world", str(tmp_path / "w1")], tmp_path / "v1")
    var_b = run(["variants", "--config", str(cfg_path), "--world", str(tmp_path / "w1")], tmp_path / "v2")
    assert var_a == var_b

    train_args = ["train", "--config", str(cfg_path), "--world", str(tmp_path / "w1"), "--variants", str(tmp_path / "v1")]
    train_a = run(train_args, tmp_path / "m1")
    train_b = run(train_args, tmp_path / "m2")
    assert train_a == train_b

    eval_args = [
        "evaluate", "--config", str(cfg_path), "--world", str(tmp_path / "w1"),
        "--model", str(tmp_path / "m1" / "model_avg.csv"),
    ]
    eval_a = run(eval_args, tmp_path / "e1")
    eval_b = run(eval_args, tmp_path / "e2")
    assert eval_a == eval_b
