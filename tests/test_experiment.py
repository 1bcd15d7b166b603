import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from synthloc import storage
from synthloc.cli import main
from synthloc.errors import ConfigError
from synthloc.experiment import (
    ExperimentConfig,
    cmd_ablate,
    cmd_evaluate,
    config_from_dict,
    load_config,
)
from synthloc.localize import AccuracyThresholds, PoseError, localization_rate

TEST_CONFIG = {
    "world": {
        "num_landmarks": 250,
        "descriptor_dim": 16,
        "num_map_views": 16,
        "num_query_views": 6,
        "street_length": 80.0,
    },
    "world_seed": 3,
    "train": {
        "mode": "swap_pi",
        "episodes": 2,
        "pairs_per_episode": 12,
        "negative_pool_size": 16,
        "num_negatives": 3,
        "embedding_dim": 8,
    },
    "seeds": [1, 2],
    "eval_ks": [1, 3],
    "query_conditions": ["at night"],
    "codebook_size": 24,
}


def write_config(tmp_path) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TEST_CONFIG))
    return str(path)


def dir_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pipeline run shared by the checks below."""
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = write_config(tmp)
    world = tmp / "world"
    variants = tmp / "variants"
    models = tmp / "models"
    evald = tmp / "eval"
    assert main(["worldgen", "--config", cfg, "--out", str(world)]) == 0
    assert main(["variants", "--config", cfg, "--world", str(world), "--out", str(variants)]) == 0
    assert main(
        ["train", "--config", cfg, "--world", str(world), "--variants", str(variants), "--out", str(models)]
    ) == 0
    assert main(
        ["evaluate", "--config", cfg, "--world", str(world), "--model", str(models / "model_avg.csv"), "--out", str(evald)]
    ) == 0
    return {"tmp": tmp, "cfg": cfg, "world": world, "variants": variants, "models": models, "eval": evald}


def test_worldgen_outputs(pipeline):
    world = pipeline["world"]
    for name in ("landmarks.csv", "views.csv", "pairs.csv", "meta.csv", "config.reference"):
        assert (world / name).exists()
    assert (world / "features").is_dir()
    n_views = TEST_CONFIG["world"]["num_map_views"] + TEST_CONFIG["world"]["num_query_views"]
    assert len(list((world / "features").iterdir())) == n_views


def test_variants_outputs(pipeline):
    vdir = pipeline["variants"]
    assert (vdir / "prompts.csv").exists()
    assert (vdir / "consistency.csv").exists()
    prompt_dirs = list((vdir / "features_variants").iterdir())
    assert len(prompt_dirs) == 11
    for d in prompt_dirs:
        assert len(list(d.iterdir())) == TEST_CONFIG["world"]["num_map_views"]


def test_variants_validity_monotone_in_tau(pipeline):
    """valid@0.3 is a subset of valid@0.2."""
    scores = storage.load_scores(pipeline["variants"])
    valid02 = {k for k, s in scores.items() if s.value >= 0.2}
    valid03 = {k for k, s in scores.items() if s.value >= 0.3}
    assert valid03 <= valid02
    # tau = 0: everything flagged valid
    valid00 = {k for k, s in scores.items() if s.value >= 0.0}
    assert valid00 == {k for k, _ in scores.items()}


def test_train_outputs(pipeline):
    models = pipeline["models"]
    for seed in TEST_CONFIG["seeds"]:
        assert (models / f"model_{seed}.csv").exists()
        trace = (models / f"trace_{seed}.csv").read_text().splitlines()
        assert len(trace) == 1 + TEST_CONFIG["train"]["episodes"]
    avg = storage.load_model(models / "model_avg.csv")
    parts = [storage.load_model(models / f"model_{s}.csv") for s in TEST_CONFIG["seeds"]]
    expected = np.mean([p.projection for p in parts], axis=0)
    assert np.allclose(avg.projection, expected, atol=1e-15)


def test_evaluate_outputs_and_summary_consistency(pipeline):
    evald = pipeline["eval"]
    for name in ("rankings.csv", "localization.csv", "summary.csv"):
        assert (evald / name).exists()
    rows = storage.load_summary(evald / "summary.csv")
    seen = {(r["protocol"], r["k"], r["condition"]) for r in rows}
    for protocol in ("ewb", "sfm"):
        for k in TEST_CONFIG["eval_ks"]:
            for cond in ("all", "original", "at night"):
                assert (protocol, k, cond) in seen

    # summary equals recomputation from localization.csv
    loc_lines = (evald / "localization.csv").read_text().splitlines()[1:]
    q_conditions = {}
    world = storage.load_world(pipeline["world"])
    n_query = len(world.query_views)
    for ln in loc_lines:
        qid = int(ln.split(",")[0])
        # ids: clean queries come first, then the shifted block
        q_conditions[qid] = "original" if qid < world.map_views[-1].id + 1 + n_query else "at night"
    thresholds = AccuracyThresholds()
    for r in rows:
        if r["condition"] == "all":
            continue
        errs = []
        for ln in loc_lines:
            parts = ln.split(",")
            qid, protocol, k = int(parts[0]), parts[1], int(parts[2])
            if protocol != r["protocol"] or k != r["k"] or q_conditions[qid] != r["condition"]:
                continue
            errs.append(
                PoseError(float(parts[3]), float(parts[4])) if parts[5] == "ok" else None
            )
        rates = localization_rate(errs, thresholds)
        assert round(rates["high"], 2) == r["high"]
        assert round(rates["mid"], 2) == r["mid"]
        assert round(rates["low"], 2) == r["low"]


def test_cli_reruns_are_byte_identical(pipeline, tmp_path):
    """Criterion: identical config+seed implies identical bytes, per stage."""
    cfg = pipeline["cfg"]
    for stage, args, ref in [
        ("worldgen", ["worldgen", "--config", cfg], pipeline["world"]),
        ("variants", ["variants", "--config", cfg, "--world", str(pipeline["world"])], pipeline["variants"]),
        (
            "train",
            ["train", "--config", cfg, "--world", str(pipeline["world"]), "--variants", str(pipeline["variants"])],
            pipeline["models"],
        ),
        (
            "evaluate",
            ["evaluate", "--config", cfg, "--world", str(pipeline["world"]),
             "--model", str(pipeline["models"] / "model_avg.csv")],
            pipeline["eval"],
        ),
    ]:
        out = tmp_path / f"rerun_{stage}"
        assert main(args + ["--out", str(out)]) == 0
        assert dir_digest(out) == dir_digest(ref), f"stage {stage} not reproducible"


BAD_VALUES = {
    "world.nmu_landmarks": ("world", "nmu_landmarks", 10),
    "train.weight_negatives": ("train", "weight_negatives", True),
    "ransac.iterations-str": ("ransac", "iterations", "1000"),
    "ransac.iterations-0": ("ransac", "iterations", 0),
    "train.episodes-str": ("train", "episodes", "2"),
    "train.episodes-bool": ("train", "episodes", True),
    "train.episodes-negative": ("train", "episodes", -1),
    "train.pairs_per_episode-0": ("train", "pairs_per_episode", 0),
    "train.negative_pool_size-float": ("train", "negative_pool_size", 16.0),
    "train.num_negatives-0": ("train", "num_negatives", 0),
    "train.embedding_dim-0": ("train", "embedding_dim", 0),
    "train.embedding_dim-above-descriptor-dim": ("train", "embedding_dim", 64),
    "train.margin-0": ("train", "margin", 0.0),
    "train.learning_rate-str": ("train", "learning_rate", "nan"),
    "train.learning_rate-nan": ("train", "learning_rate", float("nan")),
    "train.weight_decay-negative": ("train", "weight_decay", -1e-4),
    "train.weight_decay-inf": ("train", "weight_decay", float("inf")),
    "train.mode": ("train", "mode", "bogus"),
    "train.sampling": ("train", "sampling", "bogus"),
    "train.threshold_mode": ("train", "threshold_mode", "bogus"),
    "train.c_tau-str": ("train", "c_tau", "0.2"),
    "train.swap_probability-nan": ("train", "swap_probability", float("nan")),
    "train.seed-negative": ("train", "seed", -1),
    "root.threshold_mode": (None, "threshold_mode", "bogus"),
    "root.c_tau-str": (None, "c_tau", "0.2"),
    "root.seeds-str": (None, "seeds", ["1"]),
    "root.seeds-empty": (None, "seeds", []),
}


@pytest.mark.parametrize("section,key,value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_cli_config_error_names_key(pipeline, tmp_path, capsys, section, key, value):
    """A bad config value exits 2 and names its key, also where only `train`
    can see it (an embedding wider than the world's descriptors)."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
    rc = main(["train", "--config", str(bad), "--world", str(pipeline["world"]), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert (section or "root") in err
    assert key in err


def test_cli_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2


def test_cli_missing_world_is_data_error(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["variants", "--config", cfg, "--world", str(tmp_path / "missing"), "--out", str(tmp_path / "v")])
    assert rc == 3


def test_cli_degenerate_world_is_config_error(tmp_path):
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({"world": {"num_landmarks": 0}}))
    rc = main(["worldgen", "--config", str(cfg), "--out", str(tmp_path / "w")])
    assert rc == 2


def test_config_unknown_key_nested():
    with pytest.raises(ConfigError, match="train.episdoes"):
        config_from_dict({"train": {"episdoes": 3}})


def test_config_invalid_value():
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"swap_probability": 1.5}})


def test_load_config_defaults():
    cfg = load_config(None)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.c_tau == 0.2
    assert cfg.train.margin == 0.7
    thr = cfg.accuracy_thresholds()
    assert thr.levels == [("high", 0.25, 2.0), ("mid", 0.5, 5.0), ("low", 5.0, 10.0)]


def test_config_custom_thresholds():
    cfg = config_from_dict({"thresholds": {"high": [0.1, 1.0], "mid": [1.0, 4.0], "low": [8.0, 20.0]}})
    assert cfg.accuracy_thresholds().levels == [("high", 0.1, 1.0), ("mid", 1.0, 4.0), ("low", 8.0, 20.0)]
    bad = config_from_dict({"thresholds": {"high": [0.1, 1.0]}})
    with pytest.raises(ConfigError):
        bad.accuracy_thresholds()


def test_ablate_small_grid(tmp_path):
    cfg = config_from_dict(TEST_CONFIG)
    cfg.seeds = [1]
    out = tmp_path / "ablation"
    report = cmd_ablate(cfg, out, methods=("baseline", "synth_geometry"))
    assert (out / "ablation.csv").exists()
    assert (out / "ablation_raw.csv").exists()
    methods = {r["method"] for r in report}
    assert methods == {"baseline", "synth_geometry"}

    # a single-seed grid's report is the per-run summary reshaped:
    # median = min = max = the evaluate output
    run_summary = storage.load_summary(out / "runs" / "baseline" / "seed_1" / "summary.csv")
    by_key = {(r["protocol"], r["k"], r["condition"]): r for r in run_summary}
    for r in report:
        if r["method"] != "baseline":
            continue
        src = by_key[(r["protocol"], r["k"], r["condition"])]
        for level in ("high", "mid", "low"):
            assert r[f"{level}_median"] == r[f"{level}_min"] == r[f"{level}_max"] == src[level]

    # regeneration from cached artifacts is byte-identical
    before = (out / "ablation.csv").read_bytes()
    (out / "ablation.csv").unlink()
    cmd_ablate(cfg, out, methods=("baseline", "synth_geometry"))
    assert (out / "ablation.csv").read_bytes() == before


def test_evaluate_unknown_condition(tmp_path, pipeline):
    cfg = config_from_dict(TEST_CONFIG)
    cfg.query_conditions = ["at brunch"]
    with pytest.raises(ConfigError):
        cmd_evaluate(pipeline["world"], pipeline["models"] / "model_avg.csv", cfg, tmp_path / "x")


def test_train_baseline_ignores_variants(tmp_path, pipeline):
    """Baseline mode trains without touching any variants directory."""
    cfg_dict = dict(TEST_CONFIG)
    cfg_dict["train"] = dict(TEST_CONFIG["train"], mode="baseline")
    cfg_dict["seeds"] = [1]
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out = tmp_path / "models"
    rc = main(["train", "--config", str(cfg_path), "--world", str(pipeline["world"]), "--out", str(out)])
    assert rc == 0
    assert (out / "model_1.csv").exists()
    assert (out / "model_avg.csv").exists()


def test_evaluate_self_queries_perfect_sfm(tmp_path):
    """Map views used as zero-noise queries localize at 100% on every level
    under the PnP protocol."""
    from synthloc.worldgen import RenderNoise, World, WorldConfig, generate_world, relabel_view

    cfg = config_from_dict(TEST_CONFIG)
    wcfg = WorldConfig(
        num_landmarks=250, descriptor_dim=16, num_map_views=12, num_query_views=2,
        street_length=60.0, noise=RenderNoise(0.0, 0.0, 0),
    )
    world = generate_world(wcfg, seed=5)
    next_id = max(v.id for v in world.map_views + world.query_views) + 1
    self_queries = [relabel_view(v, next_id + i) for i, v in enumerate(world.map_views)]
    world = World(
        landmarks=world.landmarks, map_views=world.map_views, query_views=self_queries,
        matching_pairs=world.matching_pairs, seed=world.seed,
    )
    world_dir = tmp_path / "world"
    storage.save_world(world, world_dir)
    from synthloc.embed import init_model

    storage.save_model(init_model(16, 8, seed=0), tmp_path / "model.csv")
    cfg.query_conditions = []
    cfg.eval_ks = [1]
    summary = cmd_evaluate(world_dir, tmp_path / "model.csv", cfg, tmp_path / "eval")
    sfm_rows = [r for r in summary if r["protocol"] == "sfm" and r["condition"] == "original"]
    assert sfm_rows
    for r in sfm_rows:
        assert r["high"] == 100.0 and r["mid"] == 100.0 and r["low"] == 100.0
