import csv
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from synthloc import experiment, storage
from synthloc.cli import main
from synthloc.embed import train
from synthloc.errors import ConfigError, DataError
from synthloc.experiment import (
    ABLATION_METHODS,
    ExperimentConfig,
    _fan_out,
    _method_train_config,
    cmd_ablate,
    cmd_evaluate,
    config_from_dict,
    load_config,
)
from synthloc.geometry import MatchParams, score_world_variants
from synthloc.index import BACKENDS
from synthloc.localize import PoseError, localization_rate
from synthloc.variants import PROMPT_SEED, default_prompt_set, generate_all_variants
from synthloc.worldgen import generate_world

from conftest import set_cpus

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


def read_summary(path: Path) -> list[dict]:
    """The rows of a summary.csv, with k an int and each percentage a float."""
    with open(path, newline="") as f:
        return [
            {
                "protocol": r["protocol"],
                "k": int(r["k"]),
                "condition": r["condition"],
                **{level: float(r[f"pct@{level}"]) for level in ("high", "mid", "low")},
            }
            for r in csv.DictReader(f)
        ]


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
    """`worldgen` writes the four tables and one feature file per view,
    and nothing else."""
    n_views = TEST_CONFIG["world"]["num_map_views"] + TEST_CONFIG["world"]["num_query_views"]
    assert set(dir_digest(pipeline["world"])) == {
        "landmarks.csv", "views.csv", "pairs.csv", "meta.csv",
        *(f"features/{vid}.csv" for vid in range(n_views)),
    }


def test_variants_outputs(pipeline):
    """`variants` writes the prompts, the editor record and the scores, and
    no variant file: the record's seed and the world make the variants."""
    assert set(dir_digest(pipeline["variants"])) == {"prompts.csv", "editor.csv", "consistency.csv"}
    assert (pipeline["variants"] / "editor.csv").read_text() == "key,value\nvariant_seed,0\n"


def test_train_regenerates_the_variants_that_variants_scored(pipeline):
    """What `train` reads back of a variants directory is what `variants`
    scored: `load_variants` gives `generate_all_variants` of the loaded
    world bit for bit, `score_world_variants` of it gives consistency.csv's
    counts, and `train`'s model bytes are `save_model` of `embed.train` on
    it."""
    config = config_from_dict(TEST_CONFIG)
    world = storage.load_world(pipeline["world"])
    prompts = default_prompt_set(config.world.descriptor_dim, PROMPT_SEED)
    loaded = storage.load_variants(pipeline["variants"], world, prompts)
    generated = generate_all_variants(world, prompts, config.variant_seed)
    assert list(loaded) == list(generated)
    for vid in generated:
        for a, b in zip(loaded[vid], generated[vid], strict=True):
            assert a.condition == b.condition
            for name in ("kp", "desc", "lid"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    scores = score_world_variants(world, loaded, MatchParams())
    assert scores == storage.load_scores(pipeline["variants"], world, prompts)
    for seed in config.seeds:
        model, _ = train(world, loaded, scores, config.train_config(seed))
        storage.save_model(model, pipeline["tmp"] / "model.csv")
        path = pipeline["models"] / f"model_{seed}.csv"
        assert (pipeline["tmp"] / "model.csv").read_bytes() == path.read_bytes()


def _bump_ninth_digit(parts: list[str]) -> list[str]:
    """A prompts.csv row whose first bias value moves by one in its 9th
    significant digit."""
    x = float(parts[5])
    step = 10.0 ** (math.floor(math.log10(abs(x))) - 8)
    return parts[:5] + ["%.9g" % (x + step)] + parts[6:]


# edits of a variants directory that `train` refuses: (file, edit of its
# lines, or None to delete it, the reason after the file's path)
BAD_VARIANTS_DIRS = {
    "no-record": ("editor.csv", None, "missing file: {path}"),
    "negative-seed": ("editor.csv", lambda lines: [lines[0], "variant_seed,-1"], "{path}:2: variant_seed is not an integer >= 0"),
    "fractional-seed": ("editor.csv", lambda lines: [lines[0], "variant_seed,0.5"], "{path}:2: variant_seed is not an integer >= 0"),
    "seed-not-a-number": ("editor.csv", lambda lines: [lines[0], "variant_seed,zero"], "{path}:2: 'zero' is not a number"),
    "seed-set-twice": ("editor.csv", lambda lines: [*lines, "variant_seed,0"], "{path}:3: the key is repeated"),
    "unknown-key": ("editor.csv", lambda lines: [*lines, "edit_failure_rate,0"], "{path}:3: the key is not one save_variants writes"),
    "bias-ninth-digit": (
        "prompts.csv",
        lambda lines: [lines[0], ",".join(_bump_ninth_digit(lines[1].split(","))), *lines[2:]],
        "{path}: not the prompt set that variants draws with",
    ),
}


@pytest.mark.parametrize("name,edit,reason", list(BAD_VARIANTS_DIRS.values()), ids=list(BAD_VARIANTS_DIRS))
def test_cli_train_refuses_a_variants_dir_it_cannot_regenerate(pipeline, tmp_path, capsys, name, edit, reason):
    """A variants directory without its editor record, with a seed that is
    negative, fractional, not a number or set twice, with a key
    `save_variants` does not write, or whose prompts.csv is not the prompt
    set `variants` draws with (one bias moved in its 9th digit) makes
    `train` exit 3 naming the file (and line) and write nothing."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / name
    if edit is None:
        path.unlink()
    else:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, "train", pipeline["world"], variants))
    assert err == f"data error: {reason.format(path=path)}\n"


def test_cli_variants_over_variant_files_leaves_none(pipeline, tmp_path):
    """`variants` into a directory that holds the `features_variants/` files
    of the format that stored each variant removes them: it writes what a
    fresh directory holds."""
    out = tmp_path / "variants"
    stale = out / "features_variants" / "at_night"
    stale.mkdir(parents=True)
    (stale / "0.csv").write_text("u,v,landmark_id,desc0\n")
    assert main(["variants", "--config", pipeline["cfg"], "--world", str(pipeline["world"]), "--out", str(out)]) == 0
    assert dir_digest(out) == dir_digest(pipeline["variants"])
    assert not (out / "features_variants").exists()


def test_cli_variants_with_a_keypoint_past_float_squares_is_quiet(pipeline, tmp_path, capsys):
    """A map view keypoint of 1e300, whose squared distances overflow, is
    at an infinite distance from every other keypoint: `variants` exits 0
    with nothing on stderr, where it printed `RuntimeWarning: overflow`
    (an error under pytest's warning filter)."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    _edit_line(world / "features" / "0.csv", 2, lambda parts: ["1e300", *parts[1:]])
    rc = main(["variants", "--config", pipeline["cfg"], "--world", str(world), "--out", str(tmp_path / "v")])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_variants_bytes_do_not_depend_on_c_tau(tmp_path, pipeline):
    """`variants` reads only `variant_seed` from the config: at c_tau 0.2
    and 0.5 it writes the same bytes. It used to write a valid@c_tau
    column, which went stale when another training config reused the
    directory."""
    digests = []
    for c_tau in (0.2, 0.5):
        cfg = tmp_path / f"c_tau_{c_tau}.json"
        cfg.write_text(json.dumps({**TEST_CONFIG, "c_tau": c_tau}))
        out = tmp_path / f"variants_{c_tau}"
        assert main(["variants", "--config", str(cfg), "--world", str(pipeline["world"]), "--out", str(out)]) == 0
        digests.append(dir_digest(out))
    assert digests[0] == digests[1]


def test_variants_validity_monotone_in_tau(pipeline):
    """valid@0.3 is a subset of valid@0.2."""
    world = storage.load_world(pipeline["world"])
    scores = storage.load_scores(pipeline["variants"], world, storage.load_prompts(pipeline["variants"]))
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
    rows = read_summary(evald / "summary.csv")
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
        rates = localization_rate(errs)
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


def test_cli_rerun_into_a_used_out_leaves_nothing_stale(pipeline, tmp_path):
    """`worldgen` of a smaller world, and `variants` of it, into directories
    that hold the larger pipeline world and its variants give the bytes of
    fresh directories: no feature file of a view the new world lacks stays."""
    smaller = {**TEST_CONFIG, "world": {**TEST_CONFIG["world"], "num_map_views": 12, "num_query_views": 4}}
    cfg = tmp_path / "smaller.json"
    cfg.write_text(json.dumps(smaller))
    used = {"world": tmp_path / "used_world", "variants": tmp_path / "used_variants"}
    shutil.copytree(pipeline["world"], used["world"])
    shutil.copytree(pipeline["variants"], used["variants"])
    fresh = tmp_path / "fresh_world"
    for out in (used["world"], fresh):
        assert main(["worldgen", "--config", str(cfg), "--out", str(out)]) == 0
    assert dir_digest(used["world"]) == dir_digest(fresh)
    for out in (used["variants"], tmp_path / "fresh_variants"):
        assert main(["variants", "--config", str(cfg), "--world", str(fresh), "--out", str(out)]) == 0
    assert dir_digest(used["variants"]) == dir_digest(tmp_path / "fresh_variants")


def test_cli_worldgen_and_variants_bytes_are_pinned(pipeline):
    """Every file `worldgen` and `variants` write for TEST_CONFIG against
    sha256 digests recorded from the per-feature implementation of the
    variants stage (generation, scoring, CSV codec) that the array-at-a-time
    one replaced."""
    pinned = json.loads((Path(__file__).parent / "data" / "cli_variants_sha256.json").read_text())
    got = {
        f"{stage}/{rel}": digest
        for stage in ("world", "variants")
        for rel, digest in dir_digest(pipeline[stage]).items()
    }
    assert got == pinned


def test_cli_default_worldgen_bytes_are_pinned(tmp_path):
    """Every file `worldgen` writes for the default config at world seed 7
    (the benchmark's world) against sha256 digests recorded from the per-row
    renderer that the array-at-a-time one replaced."""
    out = tmp_path / "world"
    assert main(["worldgen", "--out", str(out)]) == 0
    pinned = json.loads((Path(__file__).parent / "data" / "cli_worldgen_default_sha256.json").read_text())
    assert dir_digest(out) == pinned


def test_cli_evaluate_asmk_bytes_are_pinned(pipeline, tmp_path):
    """rankings.csv, localization.csv and summary.csv of `evaluate` with the
    ASMK backend for TEST_CONFIG, against sha256 digests recorded from the
    per-cell loop kernel that the dense one replaced."""
    cfg = tmp_path / "asmk.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "backend": "asmk"}))
    out = tmp_path / "eval"
    assert main(
        ["evaluate", "--config", str(cfg), "--world", str(pipeline["world"]),
         "--model", str(pipeline["models"] / "model_avg.csv"), "--out", str(out)]
    ) == 0
    pinned = json.loads((Path(__file__).parent / "data" / "cli_evaluate_asmk_sha256.json").read_text())
    assert dir_digest(out) == pinned


def test_cli_train_and_cosine_evaluate_bytes_are_pinned(pipeline, tmp_path):
    """Every model_*.csv and trace_*.csv that `train` writes for TEST_CONFIG
    (swap_pi, uniform) and for its multi_k / geometry_aware variant, and the
    files of the cosine-backend `evaluate`, against sha256 digests recorded
    from the views built of one object per feature, which array-backed views
    replaced."""
    cfg = tmp_path / "multi_k.json"
    train = {**TEST_CONFIG["train"], "mode": "multi_k", "sampling": "geometry_aware"}
    cfg.write_text(json.dumps({**TEST_CONFIG, "train": train}))
    models = tmp_path / "models"
    assert main(
        ["train", "--config", str(cfg), "--world", str(pipeline["world"]),
         "--variants", str(pipeline["variants"]), "--out", str(models)]
    ) == 0
    pinned = json.loads((Path(__file__).parent / "data" / "cli_train_evaluate_sha256.json").read_text())
    got = {
        f"{name}/{rel}": digest
        for name, root in (
            ("train", pipeline["models"]),
            ("train_multi_k_geometry_aware", models),
            ("evaluate", pipeline["eval"]),
        )
        for rel, digest in dir_digest(root).items()
    }
    assert got == pinned


def test_scores_read_back_train_as_in_memory(tmp_path):
    """The scores `load_scores` reads back from `save_scores`' file equal the
    scorer's, and `multi_k` geometry-aware training on them writes the same
    projection bytes as on the scorer's own. The reader used to take each
    score from the 6-decimal `s` column, so the sampling weights and the
    positive weights moved in the 7th decimal."""
    train_keys = {**TEST_CONFIG["train"], "mode": "multi_k", "sampling": "geometry_aware"}
    config = config_from_dict({**TEST_CONFIG, "train": train_keys})
    world = generate_world(config.world, config.world_seed)
    prompts = default_prompt_set(config.world.descriptor_dim, PROMPT_SEED)
    variants = generate_all_variants(world, prompts, config.variant_seed)
    scores = score_world_variants(world, variants, MatchParams())
    storage.save_scores(scores, tmp_path)
    loaded = storage.load_scores(tmp_path, world, prompts)
    assert loaded == scores
    tc = config.train_config(1)
    in_memory, _ = train(world, variants, scores, tc)
    read_back, _ = train(world, variants, loaded, tc)
    assert read_back.projection.tobytes() == in_memory.projection.tobytes()


BAD_MODELS = {
    "not-a-number": "2,3\n1,2,x\n1,2,3\n",
    "short": "2,3\n1,2,3\n",
    "long": "1,3\n1,2,3\n1,2,3\n",
    "not-finite": "2,3\n1,2,nan\n1,2,3\n",
    "more-rows-than-columns": "3,2\n1,0\n0,1\n1,1\n",
    "empty": "",
    # a well-formed model for 8-dim descriptors; the world's are 16-dim
    "wrong-dim": "2,8\n" + ",".join(["0.5"] * 8) + "\n" + ",".join(["0.25"] * 8) + "\n",
}


@pytest.mark.parametrize("text", list(BAD_MODELS.values()), ids=list(BAD_MODELS))
def test_cli_bad_model_is_data_error(pipeline, tmp_path, capsys, text):
    """`evaluate` with a malformed model file, or one whose input dimension
    is not the world's descriptor dimension, exits 3 naming the file."""
    model = tmp_path / "model.csv"
    model.write_text(text)
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--model", str(model), "--out", str(tmp_path / "eval")]
    )
    assert rc == 3
    assert str(model) in capsys.readouterr().err


def _insert_invalid_utf8(path):
    """Put a 0xff byte, which no UTF-8 text holds, at the start of line 2."""
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])


def test_cli_model_directory_is_data_error(pipeline, tmp_path, capsys):
    """`evaluate --model` naming a directory exits 3 naming it, where it
    gave an IsADirectoryError traceback."""
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--model", str(pipeline["models"]), "--out", str(tmp_path / "eval")]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert str(pipeline["models"]) in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["model_avg.csv", "pairs.csv"])
def test_cli_input_that_is_not_utf8_is_data_error(pipeline, tmp_path, capsys, name):
    """A model file or a world's pairs.csv holding a 0xff byte makes
    `evaluate` exit 3 naming the file, where it gave a UnicodeDecodeError
    traceback."""
    world, models = tmp_path / "world", tmp_path / "models"
    shutil.copytree(pipeline["world"], world)
    shutil.copytree(pipeline["models"], models)
    path = (models if name == "model_avg.csv" else world) / name
    _insert_invalid_utf8(path)
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(world),
         "--model", str(models / "model_avg.csv"), "--out", str(tmp_path / "eval")]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert str(path) in err and "Traceback" not in err


def test_cli_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    """A config file holding a 0xff byte exits 2 naming the file, where it
    gave a UnicodeDecodeError traceback."""
    cfg = Path(write_config(tmp_path))
    cfg.write_text(json.dumps(TEST_CONFIG, indent=1))
    _insert_invalid_utf8(cfg)
    rc = main(["worldgen", "--config", str(cfg), "--out", str(tmp_path / "w")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(cfg) in err and "Traceback" not in err


def test_cli_world_without_query_views_is_data_error(pipeline, tmp_path, capsys):
    """A world whose meta.csv counts 22 map views and 0 query views (the six
    query views become map views, which `load_world` accepts) makes
    `evaluate` exit 3 and write nothing, where it exited 0 with a summary of
    0.00% rows."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    _edit_line(world / "meta.csv", 3, lambda parts: [parts[0], "22"])
    _edit_line(world / "meta.csv", 4, lambda parts: [parts[0], "0"])
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(world),
         "--model", str(pipeline["models"] / "model_avg.csv"), "--out", str(out)]
    )
    assert rc == 3
    assert "the world has no query views" in capsys.readouterr().err
    assert not out.exists()


def _verb_inputs(pipeline, command: str) -> list[str]:
    """The input arguments of `command` over the shared pipeline's outputs."""
    world = ["--world", str(pipeline["world"])]
    return {
        "worldgen": [],
        "variants": world,
        "train": [*world, "--variants", str(pipeline["variants"])],
        "evaluate": [*world, "--model", str(pipeline["models"] / "model_avg.csv")],
        "ablate": [],
    }[command]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["worldgen", "variants", "train", "evaluate", "ablate"])
def test_cli_unwritable_out_is_data_error(pipeline, tmp_path, capsys, command, under):
    """An --out that is a regular file, or lies under one, exits 3 naming
    it, where it gave a FileExistsError or NotADirectoryError traceback."""
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / "sub" if under else tmp_path / "file"
    rc = main([command, "--config", pipeline["cfg"], *_verb_inputs(pipeline, command), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"cannot write {out}/" in err and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "kept\n"


def test_cli_ablate_over_a_runs_file_is_data_error(pipeline, tmp_path, capsys):
    """`ablate` into a directory whose `runs` is a regular file exits 3
    naming it, where removing the stale runs gave a NotADirectoryError
    traceback."""
    runs = tmp_path / "ablation" / "runs"
    runs.parent.mkdir()
    runs.write_text("")
    rc = main(["ablate", "--config", pipeline["cfg"], "--out", str(runs.parent)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"cannot write {runs}:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["variants", "evaluate"])
def test_cli_world_with_fewer_than_two_map_views_is_data_error(pipeline, tmp_path, capsys, command):
    """A world whose meta.csv counts 0 map views (its 22 views all queries,
    pairs.csv without rows) exits 3 naming meta.csv and writes nothing, where
    `variants` exited 0 with an empty consistency.csv and `evaluate` blamed
    eval_ks, even at k = 1."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    _edit_line(world / "meta.csv", 3, lambda parts: [parts[0], "0"])
    _edit_line(world / "meta.csv", 4, lambda parts: [parts[0], "22"])
    (world / "pairs.csv").write_text("a,b,count\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "eval_ks": [1]}))
    out = tmp_path / "out"
    model = ["--model", str(pipeline["models"] / "model_avg.csv")] if command == "evaluate" else []
    rc = main([command, "--config", str(cfg), "--world", str(world), *model, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{world}/meta.csv:3: num_map_views is below 2" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_variants_dimension_mismatch_is_data_error(pipeline, tmp_path, capsys):
    """A prompts.csv whose biases are narrower than the world's descriptors
    (its last bias column cut, each bias renormalised to unit length) is not
    the prompt set `variants` draws with: `train` exits 3 naming the file,
    where it used to fail in a matmul."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "prompts.csv"
    header, *rows = path.read_text().splitlines()
    lines = [header.rsplit(",", 1)[0]]
    for row in rows:
        parts = row.split(",")[:-1]
        bias = np.array([float(x) for x in parts[5:]])
        lines.append(",".join(parts[:5] + [repr(x) for x in (bias / np.linalg.norm(bias)).tolist()]))
    path.write_text("\n".join(lines) + "\n")
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, "train", pipeline["world"], variants))
    assert err == f"data error: {path}: not the prompt set that variants draws with\n"


MALFORMED_ROWS = {
    "short-row": (lambda parts: parts[:-1], "columns"),
    "not-a-number": (lambda parts: parts[:3] + ["0.1x"] + parts[4:], "is not a number"),
    "not-finite": (lambda parts: parts[:3] + ["nan"] + parts[4:], "not finite"),
}


@pytest.mark.parametrize("edit,reason", list(MALFORMED_ROWS.values()), ids=list(MALFORMED_ROWS))
def test_cli_malformed_feature_csv_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A feature CSV row with the wrong column count, an unparsable value or
    a non-finite value exits 3 with a message naming the file and line."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    path = world / "features" / "3.csv"
    lines = path.read_text().splitlines()
    lines[4] = ",".join(edit(lines[4].split(",")))
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(world),
         "--variants", str(pipeline["variants"]), "--out", str(tmp_path / "m")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{path}:5:" in err
    assert reason in err


def _shift_feature_landmark_ids(world):
    """Move every feature file's landmark ids 100000 past landmarks.csv's."""
    for path in sorted((world / "features").iterdir()):
        lines = path.read_text().splitlines()
        for i, ln in enumerate(lines[1:], start=1):
            parts = ln.split(",")
            if int(parts[2]) >= 0:
                parts[2] = str(int(parts[2]) + 100000)
            lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")


def _blind_view_0(world):
    """Make every feature of map view 0 clutter, so that it sees no landmark."""
    path = world / "features" / "0.csv"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        lines[i] = ",".join(parts[:2] + ["-1"] + parts[3:])
    path.write_text("\n".join(lines) + "\n")


def _one_landmark_in_view_16(world):
    """Give every feature of view 16, the first query view, landmark id 2."""
    path = world / "features" / "16.csv"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        lines[i] = ",".join(parts[:2] + ["2"] + parts[3:])
    path.write_text("\n".join(lines) + "\n")


def _count_plus_one(lines):
    """pairs.csv's line 3 with its count one higher."""
    a, b, count = lines[2].split(",")
    return f"{a},{b},{int(count) + 1}"


def _set_line(name, lineno, text):
    def edit(world):
        path = world / name
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text(lines)
        path.write_text("\n".join(lines) + "\n")

    return edit


def _swap_lines(name, a, b):
    """Swap lines `a` and `b` of a world file, ids and all."""
    def edit(world):
        path = world / name
        lines = path.read_text().splitlines()
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        path.write_text("\n".join(lines) + "\n")

    return edit


def _shift_landmark_ids(world):
    """Number landmarks.csv's rows from 1 instead of 0."""
    path = world / "landmarks.csv"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines[1:], start=1):
        lid, rest = ln.split(",", 1)
        lines[i] = f"{int(lid) + 1},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _repeat_id(lines, lineno):
    """Line `lineno` with the id of the line above it."""
    return ",".join(lines[lineno - 2].split(",")[:1] + lines[lineno - 1].split(",")[1:])


BAD_WORLD_IDS = {
    "feature-landmark-missing": (
        "evaluate", _shift_feature_landmark_ids, "features/0.csv:2: the landmark id is not in landmarks.csv"
    ),
    "feature-landmark-repeated": (
        "evaluate", _one_landmark_in_view_16, "features/16.csv:3: the landmark id is repeated"
    ),
    "pair-view-missing": (
        "train", _set_line("pairs.csv", 2, lambda lines: "0,77,12"), "pairs.csv:2: a view id is not a map view's"
    ),
    # TEST_CONFIG has 16 map views, so view 16 is the first query view
    "pair-query-view": (
        "train", _set_line("pairs.csv", 3, lambda lines: "16,1,12"), "pairs.csv:3: a view id is not a map view's"
    ),
    "pair-same-view": (
        "train", _set_line("pairs.csv", 2, lambda lines: "3,3,12"), "pairs.csv:2: the two view ids are equal"
    ),
    "pair-count-off-by-one": (
        "train", _set_line("pairs.csv", 3, _count_plus_one),
        "pairs.csv:3: the count is not the number of landmarks both views see",
    ),
    # views 0 and 15 of the 80 m street are 75 m apart
    "pair-sharing-no-landmark": (
        "train", _set_line("pairs.csv", 2, lambda lines: "0,15,0"),
        "pairs.csv:2: the two views see no landmark in common",
    ),
    # line 2 is the pair (0, 1): view 0, now blind, used to be mined as its
    # own negative, a ValueError traceback
    "pair-of-blind-view": (
        "train", _blind_view_0, "pairs.csv:2: the count is not the number of landmarks both views see"
    ),
    "landmark-id-repeated": (
        "evaluate", _set_line("landmarks.csv", 4, lambda lines: _repeat_id(lines, 4)),
        "landmarks.csv:4: landmark ids must be 0 to L - 1 in row order",
    ),
    "landmark-ids-swapped": (
        "train", _swap_lines("landmarks.csv", 6, 9),
        "landmarks.csv:6: landmark ids must be 0 to L - 1 in row order",
    ),
    "landmark-ids-from-one": (
        "evaluate", _shift_landmark_ids,
        "landmarks.csv:2: landmark ids must be 0 to L - 1 in row order",
    ),
    "view-id-repeated": (
        "evaluate", _set_line("views.csv", 5, lambda lines: _repeat_id(lines, 5)),
        "views.csv:5: the view id is repeated",
    ),
}


@pytest.mark.parametrize("command,edit,reason", list(BAD_WORLD_IDS.values()), ids=list(BAD_WORLD_IDS))
def test_cli_bad_world_ids_is_data_error(pipeline, tmp_path, capsys, command, edit, reason):
    """Feature landmark ids missing from landmarks.csv or repeated in one
    feature file, a pair that does not name two distinct map views sharing a
    landmark or whose count is not the number of landmarks both views see,
    landmark ids that are not 0 to L - 1 in row order and a repeated view id
    exit 3 naming the file and the first bad line. They used to give a
    KeyError or ValueError traceback in `sfm_localize` or `train`, or to exit
    0 having dropped a landmark, mixed up two views, loaded a view whose
    features all name one landmark or trained on a pair of views that share
    nothing."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    edit(world)
    args = ["--variants", str(pipeline["variants"])] if command == "train" else [
        "--model", str(pipeline["models"] / "model_avg.csv")
    ]
    rc = main([command, "--config", pipeline["cfg"], "--world", str(world), *args, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{world}/{reason}" in err
    assert "Traceback" not in err


def _edit_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = ",".join(edit(lines[lineno - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")


MALFORMED_WORLD_TABLES = {
    "views-nan-qw": ("views.csv", 4, lambda parts: parts[:1] + ["nan"] + parts[2:], "views.csv:4: a value is not finite"),
    "views-nan-tx": ("views.csv", 3, lambda parts: parts[:5] + ["nan"] + parts[6:], "views.csv:3: a value is not finite"),
    "views-not-unit": ("views.csv", 5, lambda parts: parts[:1] + ["0.5"] + parts[2:], "views.csv:5: rotation quaternion must have unit norm"),
    "pairs-two-columns": ("pairs.csv", 3, lambda parts: parts[:2], "pairs.csv:3: 2 columns, header has 3"),
    "pairs-fractional-id": ("pairs.csv", 2, lambda parts: ["0.5"] + parts[1:], "pairs.csv:2: a view id is not an integer"),
    # line 2 is the pair (0, 1)
    "pairs-repeated": ("pairs.csv", 3, lambda parts: ["1", "0", parts[2]], "pairs.csv:3: the pair is repeated"),
    # the next two ids keep the names of the camera keys they edited when
    # meta.csv held the camera
    "meta-no-focal": ("meta.csv", 4, lambda parts: ["n"] + parts[1:], "meta.csv: no num_query_views entry"),
    "meta-str-width": ("meta.csv", 4, lambda parts: [parts[0], "wide"], "meta.csv:4: 'wide' is not a number"),
    "meta-view-count": ("meta.csv", 3, lambda parts: [parts[0], "15"], "views.csv: 22 views, meta.csv counts 15 map and 6"),
    "meta-negative-seed": ("meta.csv", 2, lambda parts: [parts[0], "-1"], "meta.csv:2: seed is not an integer >= 0"),
    # a descriptor_dim line after the seed's, as meta.csv used to have
    "meta-descriptor-dim": (
        "meta.csv", 2, lambda parts: [parts[0], parts[1] + "\ndescriptor_dim", "16"],
        "meta.csv:3: the key is not one save_world writes",
    ),
}


@pytest.mark.parametrize(
    "name,lineno,edit,reason", list(MALFORMED_WORLD_TABLES.values()), ids=list(MALFORMED_WORLD_TABLES)
)
def test_cli_malformed_world_table_is_data_error(pipeline, tmp_path, capsys, name, lineno, edit, reason):
    """A views.csv row with a non-finite or non-unit pose, a short or
    repeated pairs.csv row, a meta.csv without one of its keys or with a
    value that is not a number, a meta.csv whose view counts are not
    views.csv's, a negative world seed and a descriptor_dim entry exit 3
    naming the file (and line), where they used to exit 0 or give an
    IndexError, ValueError or KeyError."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    _edit_line(world / name, lineno, edit)
    rc = main(["variants", "--config", pipeline["cfg"], "--world", str(world), "--out", str(tmp_path / "v")])
    assert rc == 3
    assert f"{world}/{reason}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda parts: parts[:1] + ["strong"] + parts[2:], "prompts.csv:3: 'strong' is not a number"),
        (lambda parts: parts[:3] + ["1.5"] + parts[4:], "prompts.csv:3: dropout_rate must be in [0, 1]"),
        (lambda parts: parts[:-1], "prompts.csv:3: "),
        (lambda parts: ["at dawn"] + parts[1:], "prompts.csv: prompt names must be distinct"),
        (lambda parts: ["at_dawn"] + parts[1:], "prompts.csv: not the prompt set that variants draws with"),
        (lambda parts: ["at/dawn"] + parts[1:], "prompts.csv: not the prompt set that variants draws with"),
    ],
    ids=[
        "str-bias_gain", "dropout-above-1", "short-row", "duplicate-name",
        "shared-directory", "slash-in-name",
    ],
)
def test_cli_malformed_prompts_csv_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A prompts.csv row with a non-numeric, out-of-range or missing value
    makes `train` exit 3 naming the file and line, where a non-numeric
    bias_gain used to give a ValueError; a well-formed row renamed to
    `at_dawn` or `at/dawn` is not the prompt set `variants` draws with, and
    exits 3 naming the file."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "prompts.csv"
    _edit_line(path, 3, edit)
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--variants", str(variants), "--out", str(tmp_path / "m")]
    )
    assert rc == 3
    assert f"{path.parent}/{reason}" in capsys.readouterr().err


# edits of each line of prompts.csv (numbered from 1, the header) whose
# biases `train` refuses, and the reason after the file's path
BAD_PROMPT_BIASES = {
    "five-more-bias-columns": (
        lambda lineno, parts: parts + ([f"bias{i}" for i in range(16, 21)] if lineno == 1 else ["0"] * 5),
        ": not the prompt set that variants draws with",
    ),
    # the format written before DomainShift lost keypoint_corruption_sigma
    "keypoint-corruption-column": (
        lambda lineno, parts: parts[:5] + ["keypoint_corruption_sigma" if lineno == 1 else "0"] + parts[5:],
        ": not the prompt set that variants draws with",
    ),
    "bias-doubled": (
        lambda lineno, parts: parts[:5] + [repr(2 * float(x)) for x in parts[5:]] if lineno == 2 else parts,
        ":2: the bias is not unit length",
    ),
}


@pytest.mark.parametrize("edit,reason", list(BAD_PROMPT_BIASES.values()), ids=list(BAD_PROMPT_BIASES))
def test_cli_prompt_bias_not_unit_or_not_descriptor_wide_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A prompts.csv whose biases are wider than the world's 16-dim
    descriptors, as five more bias columns or the earlier
    keypoint_corruption_sigma column leave them, or whose bias is twice unit
    length, makes `train` exit 3 naming the file (the wider biases are not
    the prompt set `variants` draws with), where it used to exit 0."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "prompts.csv"
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(edit(i, ln.split(","))) + "\n" for i, ln in enumerate(lines, start=1)))
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, "train", pipeline["world"], variants))
    assert err == f"data error: {path}{reason}\n"


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda parts: parts[:2], "consistency.csv:3: 2 columns, header has 6"),
        (lambda parts: parts[:4] + ["x"] + parts[5:], "consistency.csv:3: 'x' is not a number"),
        (lambda parts: parts[:3] + ["nan"] + parts[4:], "consistency.csv:3: a value is not finite"),
        (lambda parts: parts[:4] + ["1.5"] + parts[5:], "consistency.csv:3: kept is not an integer"),
        (lambda parts: ["2.5"] + parts[1:], "consistency.csv:3: the query id is not an integer"),
        (lambda parts: parts[:3] + ["1.5"] + parts[4:], "consistency.csv:3: s is not in [0, 1]"),
        (
            lambda parts: parts[:4] + [str(int(parts[5]) + 1)] + parts[5:],
            "consistency.csv:3: kept is not in [0, original]",
        ),
        (lambda parts: parts[:4] + ["-1"] + parts[5:], "consistency.csv:3: kept is not in [0, original]"),
        (
            lambda parts: parts[:3] + [f"{abs(float(parts[3]) - 1e-6):.6f}"] + parts[4:],
            "consistency.csv:3: s is not kept / original to 6 decimals",
        ),
    ],
    ids=["short-row", "str-kept", "nan-s", "fractional-kept", "fractional-id", "s-above-1",
         "kept-above-original", "negative-kept", "s-not-kept-over-original"],
)
def test_cli_malformed_consistency_csv_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A consistency.csv row with a missing, non-numeric, non-finite,
    fractional or out-of-range value makes `train` exit 3 naming the file and
    line, where a short row or a non-numeric kept used to give a ValueError
    and a nan s or kept above original was read as it stood. So does an s
    that is not kept / original as `save_scores` writes it: s weighs and
    samples training tuples, and it used to be read as it stood."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "consistency.csv"
    _edit_line(path, 3, edit)
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--variants", str(variants), "--out", str(tmp_path / "m")]
    )
    assert rc == 3
    assert f"{path.parent}/{reason}" in capsys.readouterr().err


BAD_SCORE_KEYS = {
    "repeated-key": (lambda lines: lines[1], "consistency.csv:3: the (query, positive, prompt) key is repeated"),
    "unknown-view": (
        lambda lines: ",".join(["999"] + lines[2].split(",")[1:]), "consistency.csv:3: a view id is not a map view's"
    ),
    # TEST_CONFIG has 16 map views, so view 16 is the first query view
    "query-view": (
        lambda lines: ",".join(lines[2].split(",")[:1] + ["16"] + lines[2].split(",")[2:]),
        "consistency.csv:3: a view id is not a map view's",
    ),
    "unknown-prompt": (
        lambda lines: ",".join(lines[2].split(",")[:2] + ["at teatime"] + lines[2].split(",")[3:]),
        "consistency.csv:3: the prompt is not in prompts.csv",
    ),
}


@pytest.mark.parametrize("command", ["train"])
@pytest.mark.parametrize("edit,reason", list(BAD_SCORE_KEYS.values()), ids=list(BAD_SCORE_KEYS))
def test_cli_bad_consistency_keys_is_data_error(pipeline, tmp_path, capsys, command, edit, reason):
    """A consistency.csv row that repeats an earlier row's (query, positive,
    prompt) key, names a view that is not a map view or a prompt that is not
    in prompts.csv makes each command that reads a variants directory it did
    not write exit 3 naming the file and line, where the repeat used to
    replace the earlier score and the others were kept as they stood."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["world"], tmp_path / "world")
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "consistency.csv"
    lines = path.read_text().splitlines()
    lines[2] = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        [command, "--config", pipeline["cfg"], "--world", str(tmp_path / "world"),
         "--variants", str(variants), "--out", str(tmp_path / "m")]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{variants}/{reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


SCORES_HEADER = "query_id,positive_id,prompt,s,kept,original"

NOT_THE_WORLDS_SCORES = {
    "lone-line": (lambda lines: ["x"], f"consistency.csv:1: the header is not {SCORES_HEADER}"),
    "renamed-column": (
        lambda lines: [lines[0].replace("kept", "kapt")] + lines[1:],
        f"consistency.csv:1: the header is not {SCORES_HEADER}",
    ),
    # the format before `c_tau` moved to training alone; no second format is read
    "seven-column": (
        lambda lines: [lines[0] + ",valid@c_tau"] + [ln + ",1" for ln in lines[1:]],
        f"consistency.csv:1: the header is not {SCORES_HEADER}\n",
    ),
    "header-alone": (lambda lines: lines[:1], "consistency.csv: no scores"),
    # views 0 and 6 are map views of TEST_CONFIG's world, but not a matching pair
    "foreign-pair": (
        lambda lines: lines[:1] + ["0,6,at night,0.5,1,2"],
        "consistency.csv:2: the (query, positive) pair is not in pairs.csv",
    ),
    "row-dropped": (lambda lines: lines[:-1], "scores, the world has"),
}


@pytest.mark.parametrize("edit,reason", list(NOT_THE_WORLDS_SCORES.values()), ids=list(NOT_THE_WORLDS_SCORES))
def test_cli_consistency_csv_without_the_worlds_keys_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A consistency.csv whose header is not the exact one, or whose rows are
    not one for each of the world's (query, positive, prompt) keys, makes
    `train` exit 3 naming the file, where a lone line was read as a world
    without scores and a foreign or missing pair was trained on as it
    stood."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "consistency.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--variants", str(variants), "--out", str(tmp_path / "m")]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{variants}/consistency.csv" in err
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["variants", "evaluate"])
def test_cli_nan_landmark_is_data_error(pipeline, tmp_path, capsys, command):
    """A `nan` landmark coordinate exits 3 naming landmarks.csv and the line,
    where `variants` and `evaluate` used to run on it and exit 0."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    path = world / "landmarks.csv"
    lines = path.read_text().splitlines()
    parts = lines[7].split(",")
    parts[2] = "nan"
    lines[7] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    args = {
        "variants": ["--world", str(world)],
        "evaluate": ["--world", str(world), "--model", str(pipeline["models"] / "model_avg.csv")],
    }[command]
    rc = main([command, "--config", pipeline["cfg"], *args, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{path}:8: a value is not finite" in err


BAD_VALUES = {
    "world.nmu_landmarks": ("world", "nmu_landmarks", 10),
    "train.weight_negatives": ("train", "weight_negatives", True),
    "train.episodes-str": ("train", "episodes", "2"),
    "train.episodes-bool": ("train", "episodes", True),
    "train.episodes-negative": ("train", "episodes", -1),
    "train.pairs_per_episode-0": ("train", "pairs_per_episode", 0),
    "train.negative_pool_size-float": ("train", "negative_pool_size", 16.0),
    "train.num_negatives-0": ("train", "num_negatives", 0),
    "train.embedding_dim-0": ("train", "embedding_dim", 0),
    "train.embedding_dim-above-descriptor-dim": ("train", "embedding_dim", 64),
    "train.num_negatives-above-eligible": ("train", "num_negatives", 16),
    "train.mode": ("train", "mode", "bogus"),
    "train.sampling": ("train", "sampling", "bogus"),
    "train.c_tau-str": ("train", "c_tau", "0.2"),
    "train.swap_probability-nan": ("train", "swap_probability", float("nan")),
    "train.seed-negative": ("train", "seed", -1),
    "root.c_tau-str": (None, "c_tau", "0.2"),
    "root.seeds-str": (None, "seeds", ["1"]),
    "root.seeds-empty": (None, "seeds", []),
    "root.seeds-repeated": (None, "seeds", [1, 1]),
    "root.backend": (None, "backend", "bogus"),
    "root.codebook_size-str": (None, "codebook_size", "3"),
    "root.codebook_size-0": (None, "codebook_size", 0),
    "root.codebook_seed-negative": (None, "codebook_seed", -1),
    "root.eval_ks-0": (None, "eval_ks", [0]),
    "root.eval_ks-empty": (None, "eval_ks", []),
    "root.eval_ks-str": (None, "eval_ks", "1"),
    "root.eval_ks-repeated": (None, "eval_ks", [1, 1]),
    "root.world_seed-negative": (None, "world_seed", -1),
    "root.world_seed-str": (None, "world_seed", "7"),
    "root.variant_seed-negative": (None, "variant_seed", -2),
    "root.query_conditions-str": (None, "query_conditions", "at night"),
    "root.query_conditions-repeated": (None, "query_conditions", ["at night", "at night"]),
    "root.query_conditions-unknown": (None, "query_conditions", ["at brunch"]),
    "world.num_landmarks-str": ("world", "num_landmarks", "5"),
    "world.num_map_views-float": ("world", "num_map_views", 16.0),
    "world.min_coobs-0": ("world", "min_coobs", 0),
    "world.street_length-nan": ("world", "street_length", float("nan")),
    "world.num_landmarks-9": ("world", "num_landmarks", 9),
    "world.descriptor_dim-3": ("world", "descriptor_dim", 3),
    "world.num_map_views-1": ("world", "num_map_views", 1),
    "world.visibility_radius-0": ("world", "visibility_radius", 0.0),
    "world.noise-not-a-section": ("world", "noise", 3),
    "root.world-not-a-section": (None, "world", 5),
    "root.train-not-a-section": (None, "train", []),
    "root.world-null": (None, "world", None),
}

BAD_NOISE = {
    "keypoint_sigma-negative": ("keypoint_sigma", -0.1),
    "descriptor_sigma-str": ("descriptor_sigma", "0.05"),
    "clutter_count-float": ("clutter_count", 5.0),
    "clutter_count-negative": ("clutter_count", -1),
}


# BAD_VALUES entries whose error does not come from a section's own value
# checks: an unknown key, a key with another source, or what only `train`
# can see
NOT_SECTION_CHECKS = {
    "world.nmu_landmarks",
    "train.weight_negatives",
    "train.c_tau-str",
    "train.seed-negative",
    "train.embedding_dim-above-descriptor-dim",
    "train.num_negatives-above-eligible",
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_cli_config_error_names_key(pipeline, tmp_path, capsys, name):
    """A bad config value exits 2 and names its key, also where only `train`
    can see it (an embedding wider than the world's descriptors). A section's
    own value checks name the section without a trailing dot, where they
    used to report `train.`."""
    section, key, value = BAD_VALUES[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
    rc = main(["train", "--config", str(bad), "--world", str(pipeline["world"]), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert (section or "root") in err
    assert key in err
    if name not in NOT_SECTION_CHECKS:
        assert f"invalid config section {section or 'root'}:" in err


ONE_SOURCE = {
    "train.seed": ("train", "seed", 1, "root seeds"),
    "train.c_tau": ("train", "c_tau", 0.2, "root c_tau"),
}


@pytest.mark.parametrize("section,key,value,source", list(ONE_SOURCE.values()), ids=list(ONE_SOURCE))
def test_cli_key_with_another_source_is_config_error(tmp_path, capsys, section, key, value, source):
    """A section key whose value comes from a root key or is derived exits 2,
    even with its default value, naming the key and where the value comes
    from; it used to be accepted and then overwritten."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: value}}))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert source in err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "data", [{"threshold_mode": "relative"}, {"train": {"threshold_mode": "relative"}}], ids=["root", "train"]
)
def test_cli_threshold_mode_is_unknown_config_key(tmp_path, capsys, data):
    """c_tau has one meaning, the least survival ratio a pair keeps:
    `threshold_mode`, which could make it a surviving count, is an unknown
    key at the root and in the train section, and nothing is written."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


FIXED_WORLD_KEYS = [
    "bend_angle_deg", "lateral_min", "lateral_max", "height_max", "camera_height", "focal",
    "min_visible", "heading_jitter_deg", "query_translation_sigma", "query_rotation_sigma_deg",
    "image_width", "image_height",
]


@pytest.mark.parametrize("key", FIXED_WORLD_KEYS)
def test_cli_fixed_world_key_is_unknown_config_key(tmp_path, capsys, key):
    """The street's shape and the camera (placement, focal length and image
    size) are module constants of `worldgen`, the same in every world:
    setting one of them in the world section exits 2 with an unknown key,
    and nothing is written."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"world": {key: 1.0}}))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    assert f"unknown config key: world.{key}" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


FIXED_TUNING_KEYS = [
    "codebook_iters", "asmk_alpha", "asmk_sel_threshold",
    "train.margin", "train.learning_rate", "train.weight_decay", "thresholds", "match", "ransac",
    "prompt_seed",
]

# the value each key is set to: 1, or for the former `match` and `ransac`
# sections a section holding their default
FIXED_TUNING_VALUES = {"match": {"ratio": 0.9}, "ransac": {"iterations": 1000}}


@pytest.mark.parametrize("key", FIXED_TUNING_KEYS)
def test_cli_fixed_tuning_key_is_unknown_config_key(tmp_path, capsys, key):
    """The k-means iteration count, the match kernel's selectivity and
    threshold, training's margin, rate and weight decay, the accuracy levels,
    the 2D matcher's ratio and pixel tolerance, the RANSAC solver's budget
    and bounds and the prompts' seed (`variants.PROMPT_SEED`, which
    `variants` and `evaluate` both read) are constants of the code that
    reads them: setting one exits
    2 with an unknown key, at the root or in the train section, and nothing
    is written. The former sections are named as a whole, not by a dotted
    key."""
    *section, name = key.split(".")
    value = FIXED_TUNING_VALUES.get(key, 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section[0]: {name: value}} if section else {name: value}))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key: {key}\n"
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_cli_num_negatives_above_the_pool_is_config_error(pipeline, tmp_path, capsys, command):
    """A training pair mines its M negatives from a pool of
    `negative_pool_size` views, so M above the pool can never take a step:
    the config is refused naming both keys, before any file is written,
    where `train` used to exit 2 only after training and `ablate` after
    writing its world and variants."""
    config = {**TEST_CONFIG, "train": {**TEST_CONFIG["train"], "negative_pool_size": 2, "num_negatives": 3}}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    args = ["--world", str(pipeline["world"]), "--variants", str(pipeline["variants"])] if command == "train" else []
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid config section train: num_negatives 3 exceeds negative_pool_size 2: "
        "a training pair mines its negatives from that pool\n"
    )
    assert not out.exists()


def test_cli_meta_integers_load_as_written(tmp_path):
    """A world seed past 2**53 is written exactly and read back exactly, so
    `evaluate` derives its RANSAC seeds from the configured seed; a float
    read of meta.csv gave 2**53 for 2**53 + 1. An integer entry written as a
    float without a fraction, or with more leading zeros than `int` reads,
    still loads."""
    seed = 2**53 + 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "world_seed": seed}))
    world = tmp_path / "world"
    assert main(["worldgen", "--config", str(cfg), "--out", str(world)]) == 0
    assert f"seed,{seed}" in (world / "meta.csv").read_text().splitlines()
    assert storage.load_world(world).seed == seed
    for text in ("7.0", "0" * 5000 + "7"):
        _edit_line(world / "meta.csv", 2, lambda parts: [parts[0], text])
        assert storage.load_world(world).seed == 7


def test_cli_repeated_meta_key_is_data_error(pipeline, tmp_path, capsys):
    """A second entry for a meta.csv key exits 3 naming its line, where the
    later value used to replace the earlier one without a word."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    with open(world / "meta.csv", "a") as fh:
        fh.write("seed,11\n")
    rc = main(["variants", "--config", pipeline["cfg"], "--world", str(world), "--out", str(tmp_path / "v")])
    assert rc == 3
    assert capsys.readouterr().err == f"data error: {world}/meta.csv:5: the key is repeated\n"
    assert not (tmp_path / "v").exists()


def test_cli_unknown_meta_key_is_data_error(pipeline, tmp_path, capsys):
    """A meta.csv key that save_world does not write exits 3 naming its
    line, where it used to be ignored."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    with open(world / "meta.csv", "a") as fh:
        fh.write("bogus_key,5\n")
    rc = main(["variants", "--config", pipeline["cfg"], "--world", str(world), "--out", str(tmp_path / "v")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"data error: {world}/meta.csv:5: the key is not one save_world writes\n"
    )
    assert not (tmp_path / "v").exists()


def _data_error_keeps_out(tmp_path, capsys, args: list[str]) -> str:
    """The stderr of `main(args)` into an `--out` that holds an earlier
    run's file: it must exit 3 and leave that `--out` byte for byte."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.csv").write_text("an earlier run\n")
    before = dir_digest(out)
    rc = main([*args, "--out", str(out)])
    assert dir_digest(out) == before
    assert rc == 3
    return capsys.readouterr().err


def _verb_over(pipeline, command: str, world, variants=None) -> list[str]:
    """The arguments of `command` over `world` (and `variants`, for `train`)
    and the shared pipeline's other inputs."""
    extra = {
        "variants": [],
        "train": ["--variants", str(variants or pipeline["variants"])],
        "evaluate": ["--model", str(pipeline["models"] / "model_avg.csv")],
    }[command]
    return [command, "--config", pipeline["cfg"], "--world", str(world), *extra]


@pytest.mark.parametrize("command", ["variants", "train", "evaluate"])
def test_cli_meta_camera_entry_is_data_error(pipeline, tmp_path, capsys, command):
    """A meta.csv `focal` entry exits 3 naming its line: no world file holds
    the camera, which is worldgen's for every view. A default world that
    recorded a focal length of 500 px used to be loaded with that camera:
    with an identity model SfM localized no query at the high level, where
    it localized all of them at 400 px."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    with open(world / "meta.csv", "a") as fh:
        fh.write("focal,500\n")
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, command, world))
    assert err == f"data error: {world}/meta.csv:5: the key is not one save_world writes\n"


def test_cli_world_in_the_format_with_the_camera_is_data_error(pipeline, tmp_path, capsys):
    """A world directory as save_world wrote it when meta.csv held the
    descriptor width and the camera and views.csv each view's condition
    exits 3 at meta.csv's first key that save_world no longer writes: no
    second format is read, so such a world is made again by `worldgen`."""
    world = tmp_path / "world"
    shutil.copytree(pipeline["world"], world)
    seed, n_map, n_query = (ln.split(",")[1] for ln in (world / "meta.csv").read_text().splitlines()[1:])
    meta = [
        "key,value", f"seed,{seed}", "descriptor_dim,16", f"num_map_views,{n_map}",
        f"num_query_views,{n_query}", "focal,400", "cx,320", "cy,240", "width,640", "height,480",
    ]
    (world / "meta.csv").write_text("\n".join(meta) + "\n")
    lines = (world / "views.csv").read_text().splitlines()
    views = [lines[0] + ",condition"] + [ln + ",original" for ln in lines[1:]]
    (world / "views.csv").write_text("\n".join(views) + "\n")
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, "variants", world))
    assert err == f"data error: {world}/meta.csv:3: the key is not one save_world writes\n"


# (the file of a world that holds it, its first descriptor column)
DESCRIPTOR_FILES = {
    "features": ("features/0.csv", 3),
    "landmarks": ("landmarks.csv", 4),
}


@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["zero", "doubled"])
@pytest.mark.parametrize("name,first", list(DESCRIPTOR_FILES.values()), ids=list(DESCRIPTOR_FILES))
def test_cli_descriptor_not_unit_length_is_data_error(pipeline, tmp_path, capsys, name, first, factor):
    """A descriptor row of a view's features or of landmarks.csv that is
    all zeros or twice unit length exits 3 naming the file and line, where
    `variants` used to run on it and exit 0. Rows written to 9 digits read
    back within about 1e-9 of unit length, under the 1e-6 that the check
    allows."""
    root = tmp_path / "world"
    shutil.copytree(pipeline["world"], root)
    _edit_line(root / name, 4, lambda parts: parts[:first] + [repr(float(x) * factor) for x in parts[first:]])
    err = _data_error_keeps_out(tmp_path, capsys, _verb_over(pipeline, "variants", root))
    assert err == f"data error: {root}/{name}:4: the descriptor is not unit length\n"


README = Path(__file__).parent.parent / "README.md"


def readme_key_rows() -> list[tuple[str, str]]:
    """(dotted key, JSON default) of each row of README's key tables, the
    rows whose first two cells are backquoted."""
    rows = []
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) == 3 and all(c.startswith("`") and c.endswith("`") for c in cells[:2]):
            rows.append((cells[0][1:-1], cells[1][1:-1]))
    return rows


def settable_keys(cls=ExperimentConfig, path: str = "") -> list[str]:
    """The dotted name of each field a config file may set: every field of
    the config's dataclasses but the sections and the keys whose value comes
    from elsewhere."""
    keys = []
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            keys += settable_keys(f.default_factory, f"{path}{f.name}.")
        elif path + f.name not in experiment._NOT_KEYS:
            keys.append(path + f.name)
    return keys


def test_config_reference_lists_every_key_with_its_default():
    """README's key tables are the config reference: a nested config built
    from each row's key and JSON default loads and equals the default
    config."""
    data: dict = {}
    for dotted, default in readme_key_rows():
        *sections, key = dotted.split(".")
        node = data
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = json.loads(default)
    assert config_from_dict(data) == ExperimentConfig()


def test_readme_names_every_config_key():
    """README's key tables list each settable key once and no other: no
    section, no key with another source (`train.seed`, `train.c_tau`) and no
    constant."""
    keys = [key for key, _ in readme_key_rows()]
    assert len(keys) == len(set(keys)) == 28
    assert set(keys) == set(settable_keys())


# a keypoint or descriptor noise past float range
OVERFLOWING_NOISE = {
    "keypoint_sigma": (1e308, "world.noise: view 0's keypoints are not finite"),
    "descriptor_sigma": (1e200, "world.noise: view 0's descriptors are not unit length"),
}


@pytest.mark.parametrize("key", list(OVERFLOWING_NOISE))
def test_cli_worldgen_overflowing_noise_is_config_error(tmp_path, capsys, key):
    """A noise that overflows exits 2 naming world.noise and writes nothing.
    Keypoints of 1e308 px noise used to be written as inf, on which
    `variants` exited 3, and descriptors of 1e200 noise as all zeros, which
    every verb took; both printed numpy RuntimeWarnings."""
    value, message = OVERFLOWING_NOISE[key]
    cfg = tmp_path / "noisy.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "world": {**TEST_CONFIG["world"], "noise": {key: value}}}))
    assert main(["worldgen", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("key,value", list(BAD_NOISE.values()), ids=list(BAD_NOISE))
def test_cli_noise_config_error_names_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"world": {"noise": {key: value}}}))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert "invalid config section world.noise:" in err
    assert key in err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"eval_ks": [1, 40]},
        {"thresholds": {"high": [0.25], "mid": [0.5, 5.0], "low": [5.0, 10.0]}},
    ],
    ids=["eval_ks-above-map-size", "thresholds-short-pair"],
)
def test_cli_evaluate_config_error_writes_nothing(pipeline, tmp_path, capsys, override):
    """`evaluate` with k larger than the 16-view map, or with a
    `thresholds` key (the accuracy levels are `localize.LEVELS`), exits 2
    naming the key before it writes any file (it used to exit 0 with k=40
    rows, or fail with an IndexError after writing rankings.csv)."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, **override}))
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--config", str(cfg), "--world", str(pipeline["world"]),
         "--model", str(pipeline["models"] / "model_avg.csv"), "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert next(iter(override)) in err
    if "eval_ks" in override:
        assert "16 views" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override,message",
    [
        ({"c_tau": 0.0}, "ablation method synth_geometry with c_tau = 0.0: geometry-aware sampling"),
        ({"c_tau": -1}, "ablation method synth_geometry with c_tau = -1: geometry-aware sampling"),
        ({"eval_ks": [1, 40]}, "eval_ks: k = 40 exceeds the map's 16 views"),
        (
            {"world": {**TEST_CONFIG["world"], "num_query_views": 0}},
            "world.num_query_views: 0 query views leave ablate nothing to evaluate",
        ),
        (
            {"world": {**TEST_CONFIG["world"], "visibility_radius": 0.5}},
            "degenerate world: map view 0 sees only 0 landmarks",
        ),
        (
            {"train": {**TEST_CONFIG["train"], "embedding_dim": 20}},
            "train.embedding_dim 20 exceeds the descriptor dim 16",
        ),
        (
            {"train": {**TEST_CONFIG["train"], "num_negatives": 16}},
            "train.num_negatives 16: no matching pair has that many map views",
        ),
        *(
            ({"world": {**TEST_CONFIG["world"], "noise": {key: value}}}, message)
            for key, (value, message) in OVERFLOWING_NOISE.items()
        ),
        *(
            ({"world": {**TEST_CONFIG["world"], "street_length": length}},
             "degenerate world: map view 0 sees only 0 landmarks")
            for length in (1e160, 1e308)
        ),
    ],
    ids=[
        "c_tau-0", "c_tau-negative", "eval_ks-above-map-size", "no-query-views",
        "degenerate-world", "embedding_dim-above-descriptor-dim", "num_negatives-16",
        *(f"{key}-overflows" for key in OVERFLOWING_NOISE),
        "street_length-1e160", "street_length-1e308",
    ],
)
def test_cli_ablate_config_error_writes_nothing(tmp_path, capsys, override, message):
    """`ablate` with a root c_tau that geometry-aware sampling cannot train
    with, with k larger than the 16-view map the config makes, with no
    query views to evaluate on, with a world whose map views see too few
    landmarks, with an embedding wider than that world's descriptors, with
    more negatives than any matching pair has views sharing no landmark
    with it, with a noise that overflows, or with a street so long that its
    distances overflow, exits 2 before it touches `--out`: an earlier run
    there stays byte for byte. It used to remove the earlier variants and
    runs and write a new world first; a c_tau <= 0 then ended in a
    ValueError traceback, no query views in a data error (exit 3), 16
    negatives in a config error found while training, and keypoints of
    1e308 px noise in a data error. A street of 1e160 or 1e308 used to
    print numpy overflow warnings before its refusal."""
    assert ablate_over_an_earlier_run(tmp_path, {**TEST_CONFIG, **override}) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def _model_csv(rows: list[list[str]]) -> str:
    """The text of an 8 x 16 model file of `rows`' weights."""
    return "8,16\n" + "".join(",".join(row) + "\n" for row in rows)


# 8 x 16 models whose projected descriptors overflow both retrieval backends
OVERFLOWING_MODELS = {
    **{w: [[w] * 16] * 8 for w in ("1e154", "1e300", "1.7e308", "-1e300")},
    "alternating-1e300": [["1e300", "-1e300"] * 8] * 8,
    "one-row-1e300": [["1e300"] * 16] + [["0.1"] * 16] * 7,
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_cli_evaluate_overflowing_model_is_data_error(pipeline, tmp_path, capsys, backend):
    """Each model of `OVERFLOWING_MODELS` exits 3 naming its file before
    `evaluate` writes anything. With every weight 1e300 it used to exit 0
    with NaN scores in rankings.csv and print numpy RuntimeWarnings."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "backend": backend}))
    for name, rows in OVERFLOWING_MODELS.items():
        model = tmp_path / f"{name}.csv"
        model.write_text(_model_csv(rows))
        out = tmp_path / f"eval-{name}"
        rc = main(
            ["evaluate", "--config", str(cfg), "--world", str(pipeline["world"]), "--model", str(model),
             "--out", str(out)]
        )
        assert rc == 3, name
        assert capsys.readouterr().err == (
            f"data error: {model}: the model's projected descriptors overflow retrieval\n"
        )
        assert not out.exists()


def test_cli_evaluate_cosine_accepts_a_model_of_weights_1e153(pipeline, tmp_path, capsys):
    """Weights of 1e153 keep every cosine retrieval finite: `evaluate` exits
    0 and prints nothing."""
    model = tmp_path / "large.csv"
    model.write_text(_model_csv([["1e153"] * 16] * 8))
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(pipeline["world"]), "--model", str(model),
         "--out", str(tmp_path / "eval")]
    )
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("weight", ["1e152", "1e153"])
def test_cli_evaluate_model_overflowing_the_codebook_is_data_error(pipeline, tmp_path, capsys, weight):
    """A model whose global descriptors are finite but whose projected local
    descriptors square past float range exits 3 naming its file before
    `evaluate` writes anything, where the match kernel's k-means used to
    overflow (1e152) or take NaN distances (1e153) and exit 0 printing
    RuntimeWarnings."""
    cfg = tmp_path / "asmk.json"
    cfg.write_text(json.dumps({**TEST_CONFIG, "backend": "asmk", "query_conditions": []}))
    model = tmp_path / "huge.csv"
    model.write_text(_model_csv([[weight] * 16] * 8))
    args = ["evaluate", "--config", str(cfg), "--world", str(pipeline["world"]), "--model", str(model)]
    err = _data_error_keeps_out(tmp_path, capsys, args)
    assert err == f"data error: {model}: the model's projected descriptors overflow retrieval\n"


def test_cli_ablate_data_error_writes_nothing(tmp_path, capsys):
    """`ablate` of a world without matching pairs exits 3 before it touches
    `--out`, where it used to remove the earlier variants and runs and write
    the new world first."""
    config = {**TEST_CONFIG, "world": {**TEST_CONFIG["world"], "min_coobs": 1000}}
    assert ablate_over_an_earlier_run(tmp_path, config) == 3
    assert capsys.readouterr().err == "data error: world has no matching pairs\n"


def ablate_over_an_earlier_run(tmp_path, config: dict) -> int:
    """`ablate`'s exit code for `config` into an `--out` that holds an
    earlier run, which it must leave byte for byte."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "ablation"
    for rel in ("world/meta.csv", "variants/prompts.csv", "runs/baseline/seed_1/summary.csv", "ablation.csv"):
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(f"{rel} of an earlier run\n")
    before = dir_digest(out)
    rc = main(["ablate", "--config", str(cfg), "--out", str(out)])
    assert dir_digest(out) == before
    return rc


def test_cli_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2


@pytest.mark.parametrize(
    "text",
    ["[" * 200000 + "]" * 200000, '{"train": {"swap_probability": ' + "9" * 5000 + "}}"],
    ids=["arrays-nested-200000-deep", "number-of-5000-digits"],
)
def test_cli_config_json_cannot_read_is_config_error(tmp_path, capsys, text):
    """A config nested too deep for the JSON parser, or holding a number of
    more digits than the interpreter converts, exits 2 with one line and
    leaves `--out` byte for byte, where both used to exit 1 with a
    RecursionError or ValueError traceback. Where the interpreter has no
    digit limit, the long number is a swap probability above 1."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "w"
    out.mkdir()
    (out / "earlier.csv").write_text("an earlier run\n")
    before = dir_digest(out)
    assert main(["worldgen", "--config", str(bad), "--out", str(out)]) == 2
    assert dir_digest(out) == before
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if text.startswith("[") or getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert err.startswith(f"config error: config parse error in {bad}: ")


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"world": {"num_map_views": 16}, "world": {"num_landmarks": 250}}', "world"),
        ('{"world": {"num_map_views": 16, "num_map_views": 12}}', "num_map_views"),
    ],
    ids=["root", "world"],
)
def test_cli_key_set_twice_is_config_error(tmp_path, capsys, text, key):
    """A key set twice in one JSON object exits 2 naming it, and nothing is
    written; the later value used to replace the earlier without a word."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err == f"config error: config key {key} is set twice in one object\n"
    assert not (tmp_path / "w").exists()


def test_cli_missing_world_is_data_error(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["variants", "--config", cfg, "--world", str(tmp_path / "missing"), "--out", str(tmp_path / "v")])
    assert rc == 3


def test_cli_worldgen_has_no_seed_flag(tmp_path, capsys):
    """The world seed has one source, the config's world_seed."""
    with pytest.raises(SystemExit) as exc:
        main(["worldgen", "--seed", "7", "--out", str(tmp_path / "w")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_cli_degenerate_world_is_config_error(tmp_path):
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({"world": {"num_landmarks": 0}}))
    rc = main(["worldgen", "--config", str(cfg), "--out", str(tmp_path / "w")])
    assert rc == 2


@pytest.mark.parametrize("command", ["worldgen", "ablate"])
def test_cli_map_view_without_landmarks_is_config_error(tmp_path, capsys, command):
    """A world config whose first map view sees no landmark at all exits 2,
    as one whose map view sees 3 does, where it used to exit 3 with "no
    visible landmarks"."""
    cfg = tmp_path / "blind.json"
    cfg.write_text(json.dumps({"world": {"visibility_radius": 0.5}}))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "config error: degenerate world: map view 0 sees only 0 landmarks\n"


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_cli_world_without_matching_pairs_is_data_error(tmp_path, capsys, command):
    """A world in which no two map views share `min_coobs` landmarks has
    nothing to train on: `train` and `ablate` exit 3, where they used to
    exit 1 with a ValueError traceback."""
    config = {**TEST_CONFIG, "world": {**TEST_CONFIG["world"], "min_coobs": 100000}, "seeds": [1]}
    cfg = tmp_path / "no_pairs.json"
    cfg.write_text(json.dumps(config))
    if command == "train":
        world, variants = tmp_path / "world", tmp_path / "variants"
        assert main(["worldgen", "--config", str(cfg), "--out", str(world)]) == 0
        assert main(["variants", "--config", str(cfg), "--world", str(world), "--out", str(variants)]) == 0
        args = ["--world", str(world), "--variants", str(variants)]
    else:
        args = []
    capsys.readouterr()
    rc = main([command, "--config", str(cfg), *args, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == "data error: world has no matching pairs\n"


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
    assert cfg.train.num_negatives == 5


def test_ablate_small_grid(tmp_path):
    cfg = config_from_dict(TEST_CONFIG)
    cfg.seeds = [1]
    out = tmp_path / "ablation"
    cmd_ablate(cfg, out)
    # every output, against digests recorded before the train configs came
    # from one source
    got = dir_digest(out)
    assert got == json.loads((Path(__file__).parent / "data" / "cli_ablate_sha256.json").read_text())
    assert not any(Path(rel).name == "done" for rel in got)
    with open(out / "ablation.csv", newline="") as f:
        report = list(csv.DictReader(f))
    methods = {r["method"] for r in report}
    assert methods == set(ABLATION_METHODS)

    # a single-seed grid's report is the per-run summary reshaped:
    # median = min = max = the evaluate output
    run_summary = read_summary(out / "runs" / "baseline" / "seed_1" / "summary.csv")
    by_key = {(r["protocol"], r["k"], r["condition"]): r for r in run_summary}
    for r in report:
        if r["method"] != "baseline":
            continue
        src = by_key[(r["protocol"], int(r["k"]), r["condition"])]
        for level in ("high", "mid", "low"):
            stats = [float(r[f"{level}_{stat}"]) for stat in ("median", "min", "max")]
            assert stats == [src[level]] * 3

    # another config into the same directory reports what a fresh directory
    # does: no stage of the first run is reused
    other = replace(cfg, world_seed=5, c_tau=0.35)
    cmd_ablate(other, out)
    cmd_ablate(other, tmp_path / "fresh")
    assert dir_digest(out) == dir_digest(tmp_path / "fresh")  # ablation.csv included


def test_ablate_rerun_with_a_smaller_grid_leaves_nothing_stale(tmp_path):
    """A rerun with fewer seeds into the same directory removes the earlier
    runs, so the directory is what a fresh run writes; a file that `ablate`
    does not write stays."""
    cfg = config_from_dict(TEST_CONFIG)
    out = tmp_path / "ablation"
    cmd_ablate(cfg, out)
    (out / "notes.txt").write_text("kept\n")
    smaller = replace(cfg, seeds=[1])
    cmd_ablate(smaller, out)
    cmd_ablate(smaller, tmp_path / "fresh")
    assert (out / "notes.txt").read_text() == "kept\n"
    (out / "notes.txt").unlink()
    assert dir_digest(out) == dir_digest(tmp_path / "fresh")


def test_ablation_methods_train_with_root_keys():
    """Every ablation method trains with the root c_tau (synth_uniform with
    the filter off) and the run's seed."""
    c_tau = 0.35
    cfg = config_from_dict({**TEST_CONFIG, "c_tau": c_tau})
    for method in ABLATION_METHODS:
        tc = _method_train_config(cfg, method, seed=5)
        assert tc.c_tau == (0.0 if method == "synth_uniform" else c_tau), method
        assert tc.seed == 5


def test_evaluate_unknown_condition():
    with pytest.raises(ConfigError, match="'at brunch' is not one of at dawn"):
        config_from_dict({**TEST_CONFIG, "query_conditions": ["at night", "at brunch"]})


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
    from synthloc.worldgen import RenderNoise, World, WorldConfig, generate_world

    cfg = config_from_dict(TEST_CONFIG)
    wcfg = WorldConfig(
        num_landmarks=250, descriptor_dim=16, num_map_views=12, num_query_views=2,
        street_length=60.0, noise=RenderNoise(0.0, 0.0, 0),
    )
    world = generate_world(wcfg, seed=5)
    next_id = max(v.id for v in world.map_views + world.query_views) + 1
    self_queries = [replace(v, id=next_id + i) for i, v in enumerate(world.map_views)]
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


# ---------------------------------------------------------------------------
# fan-out over the CPUs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cli_bytes_do_not_depend_on_cpu_count(pipeline, tmp_path, monkeypatch, forks, cpus):
    """`variants`, `train` (two seeds, both configs of the train guard),
    `evaluate` with both backends and `ablate` write the pinned bytes
    whether their work runs on 1, 2 or 3 CPUs."""
    set_cpus(monkeypatch, cpus)
    data = Path(__file__).parent / "data"
    cfg = pipeline["cfg"]
    world = str(pipeline["world"])
    variants = tmp_path / "variants"
    assert main(["variants", "--config", cfg, "--world", world, "--out", str(variants)]) == 0
    got = {f"world/{rel}": d for rel, d in dir_digest(pipeline["world"]).items()}
    got |= {f"variants/{rel}": d for rel, d in dir_digest(variants).items()}
    assert got == json.loads((data / "cli_variants_sha256.json").read_text())

    multi_k = tmp_path / "multi_k.json"
    train = {**TEST_CONFIG["train"], "mode": "multi_k", "sampling": "geometry_aware"}
    multi_k.write_text(json.dumps({**TEST_CONFIG, "train": train}))
    asmk = tmp_path / "asmk.json"
    asmk.write_text(json.dumps({**TEST_CONFIG, "backend": "asmk"}))
    dirs = {name: tmp_path / name for name in ("train", "train_multi_k", "evaluate", "asmk")}
    for config, out in ((cfg, dirs["train"]), (str(multi_k), dirs["train_multi_k"])):
        assert main(
            ["train", "--config", config, "--world", world, "--variants", str(variants),
             "--out", str(out)]
        ) == 0
    model = str(dirs["train"] / "model_avg.csv")
    for config, out in ((cfg, dirs["evaluate"]), (str(asmk), dirs["asmk"])):
        assert main(
            ["evaluate", "--config", config, "--world", world, "--model", model, "--out", str(out)]
        ) == 0
    got = {}
    for name, root in (
        ("train", dirs["train"]),
        ("train_multi_k_geometry_aware", dirs["train_multi_k"]),
        ("evaluate", dirs["evaluate"]),
    ):
        got |= {f"{name}/{rel}": d for rel, d in dir_digest(root).items()}
    assert got == json.loads((data / "cli_train_evaluate_sha256.json").read_text())
    assert dir_digest(dirs["asmk"]) == json.loads((data / "cli_evaluate_asmk_sha256.json").read_text())

    ablate_cfg = config_from_dict({**TEST_CONFIG, "seeds": [1]})
    out = tmp_path / "ablation"
    cmd_ablate(ablate_cfg, out)
    assert dir_digest(out) == json.loads((data / "cli_ablate_sha256.json").read_text())

    assert (len(forks) > 0) == (cpus > 1)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_fan_out_keeps_item_order(monkeypatch, cpus, count):
    set_cpus(monkeypatch, cpus)
    assert _fan_out(lambda x: (x, x * x), list(range(count))) == [(x, x * x) for x in range(count)]


def test_fan_out_runs_shares_in_children_and_nested_calls_serially(monkeypatch, forks):
    """Each outer item after the first share runs in a forked child; a
    `_fan_out` call made inside a share, in the parent or in a child, runs
    in that same process and forks nothing."""
    set_cpus(monkeypatch, 2)

    def outer(item):
        return os.getpid(), _fan_out(lambda _: os.getpid(), range(4))

    (pid0, inner0), (pid1, inner1) = _fan_out(outer, [0, 1])
    assert pid0 == os.getpid() != pid1
    assert inner0 == [pid0] * 4 and inner1 == [pid1] * 4
    assert len(forks) == 1


def test_fan_out_reraises_a_child_error_with_its_type(monkeypatch):
    set_cpus(monkeypatch, 2)

    def fail_in_child(item):
        if item == 1:
            raise DataError(f"bad item in {os.getpid()}")
        return item

    with pytest.raises(DataError, match="bad item in") as info:
        _fan_out(fail_in_child, [0, 1])
    assert str(os.getpid()) not in str(info.value)


def test_fan_out_names_the_status_of_a_child_that_sends_nothing(monkeypatch):
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="status 7"):
        _fan_out(lambda item: os._exit(7) if item else item, [0, 1])


def test_fan_out_kills_and_reaps_children_when_the_parent_share_raises(monkeypatch):
    """A raise in the parent's own share ends the call at once: the children,
    which would run for a minute, are killed and reaped before it returns."""
    set_cpus(monkeypatch, 3)

    def work(item):
        if item == 0:
            raise ValueError("parent share")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent share"):
        _fan_out(work, [0, 1, 2])
    assert time.perf_counter() - start < 30


def test_cli_data_error_in_a_child_share_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    """A DataError raised while a forked child trains seed 2 reaches the CLI
    as a DataError: exit code 3, one line on stderr, no traceback."""
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    real_train = experiment.train

    def train(world, variants, scores, config):
        if config.seed == 2:
            raise DataError(f"seed 2 trained in a child: {os.getpid() != parent}")
        return real_train(world, variants, scores, config)

    monkeypatch.setattr(experiment, "train", train)
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--variants", str(pipeline["variants"]), "--out", str(tmp_path / "models")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "data error: seed 2 trained in a child: True\n"
