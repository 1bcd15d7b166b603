import ast
import hashlib
import json
import os
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synthloc import experiment, storage
from synthloc.cli import main
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
    write_config_reference,
)
from synthloc.localize import AccuracyThresholds, PoseError, localization_rate

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


def test_cli_worldgen_and_variants_bytes_are_pinned(pipeline):
    """Every file `worldgen` and `variants` write for TEST_CONFIG, except
    config.reference, against sha256 digests recorded from the per-feature
    implementation of the variants stage (generation, scoring, CSV codec)
    that the array-at-a-time one replaced."""
    pinned = json.loads((Path(__file__).parent / "data" / "cli_variants_sha256.json").read_text())
    got = {}
    for stage in ("world", "variants"):
        for rel, digest in dir_digest(pipeline[stage]).items():
            if Path(rel).name != "config.reference":
                got[f"{stage}/{rel}"] = digest
    assert got == pinned


def test_cli_default_worldgen_bytes_are_pinned(tmp_path):
    """Every file `worldgen` writes for the default config at world seed 7
    (the benchmark's world), except config.reference, against sha256 digests
    recorded from the per-row renderer that the array-at-a-time one
    replaced."""
    out = tmp_path / "world"
    assert main(["worldgen", "--seed", "7", "--out", str(out)]) == 0
    pinned = json.loads((Path(__file__).parent / "data" / "cli_worldgen_default_sha256.json").read_text())
    got = {rel: digest for rel, digest in dir_digest(out).items() if rel != "config.reference"}
    assert got == pinned


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
    got = {rel: digest for rel, digest in dir_digest(out).items() if rel != "config.reference"}
    assert got == pinned


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
    got = {}
    for name, root in (
        ("train", pipeline["models"]),
        ("train_multi_k_geometry_aware", models),
        ("evaluate", pipeline["eval"]),
    ):
        for rel, digest in dir_digest(root).items():
            if rel != "config.reference":
                got[f"{name}/{rel}"] = digest
    assert got == pinned


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
    _edit_line(world / "meta.csv", 4, lambda parts: [parts[0], "22"])
    _edit_line(world / "meta.csv", 5, lambda parts: [parts[0], "0"])
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--config", pipeline["cfg"], "--world", str(world),
         "--model", str(pipeline["models"] / "model_avg.csv"), "--out", str(out)]
    )
    assert rc == 3
    assert "the world has no query views" in capsys.readouterr().err
    assert not out.exists()


def test_cli_variants_dimension_mismatch_is_data_error(pipeline, tmp_path, capsys):
    """A variants file whose descriptors are narrower than the world's exits
    3 naming the file, where `train` used to fail in a matmul."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "features_variants" / "at_night" / "2.csv"
    lines = [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        ["train", "--config", pipeline["cfg"], "--world", str(pipeline["world"]),
         "--variants", str(variants), "--out", str(tmp_path / "m")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "15-dim" in err


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
    # line 20 is a query view's, which `train` reads but does not use
    "view-synthetic-train": (
        "train", _set_line("views.csv", 20, lambda lines: lines[19].rsplit(",", 1)[0] + ",at night"),
        "views.csv:20: the view's condition is not original",
    ),
    "view-synthetic-evaluate": (
        "evaluate", _set_line("views.csv", 20, lambda lines: lines[19].rsplit(",", 1)[0] + ",at night"),
        "views.csv:20: the view's condition is not original",
    ),
}


@pytest.mark.parametrize("command,edit,reason", list(BAD_WORLD_IDS.values()), ids=list(BAD_WORLD_IDS))
def test_cli_bad_world_ids_is_data_error(pipeline, tmp_path, capsys, command, edit, reason):
    """Feature landmark ids missing from landmarks.csv, a pair that does not
    name two distinct map views, landmark ids that are not 0 to L - 1 in row
    order, a repeated view id and a view whose condition is not `original`
    exit 3 naming the file and the first bad line. They used to give a
    KeyError traceback in `sfm_localize` or `train`, to exit 3 with "already
    synthetic", naming no file, or to exit 0 having dropped a landmark, mixed
    up two views or trained on a world with a synthetic view."""
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
    "views-no-condition": ("views.csv", 2, lambda parts: parts[:-1], "views.csv:2: 8 columns, header has 9"),
    "views-synthetic": ("views.csv", 3, lambda parts: parts[:-1] + ["at night"], "views.csv:3: the view's condition is not original"),
    "pairs-two-columns": ("pairs.csv", 3, lambda parts: parts[:2], "pairs.csv:3: 2 columns, header has 3"),
    "pairs-fractional-id": ("pairs.csv", 2, lambda parts: ["0.5"] + parts[1:], "pairs.csv:2: a view id is not an integer"),
    # line 2 is the pair (0, 1)
    "pairs-repeated": ("pairs.csv", 3, lambda parts: ["1", "0", parts[2]], "pairs.csv:3: the pair is repeated"),
    "meta-no-focal": ("meta.csv", 6, lambda parts: ["f"] + parts[1:], "meta.csv: no focal entry"),
    "meta-str-width": ("meta.csv", 9, lambda parts: [parts[0], "wide"], "meta.csv:9: 'wide' is not a number"),
    "meta-view-count": ("meta.csv", 4, lambda parts: [parts[0], "15"], "views.csv: 22 views, meta.csv counts 15 map and 6"),
    "meta-negative-seed": ("meta.csv", 2, lambda parts: [parts[0], "-1"], "meta.csv:2: seed is not an integer >= 0"),
}


@pytest.mark.parametrize(
    "name,lineno,edit,reason", list(MALFORMED_WORLD_TABLES.values()), ids=list(MALFORMED_WORLD_TABLES)
)
def test_cli_malformed_world_table_is_data_error(pipeline, tmp_path, capsys, name, lineno, edit, reason):
    """A views.csv row with a non-finite or non-unit pose, without its
    condition or with a condition other than `original`, a short or repeated
    pairs.csv row, a meta.csv without focal, a meta.csv whose view counts are
    not views.csv's and a negative world seed exit 3 naming the file (and
    line), where they used to exit 0 or give an IndexError, ValueError or
    KeyError."""
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
    ],
    ids=["str-bias_gain", "dropout-above-1", "short-row", "duplicate-name"],
)
def test_cli_malformed_prompts_csv_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A prompts.csv row with a non-numeric, out-of-range or missing value
    makes `train` exit 3 naming the file and line, where a non-numeric
    bias_gain used to give a ValueError."""
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


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda parts: parts[:2], "consistency.csv:3: 2 columns, header has 7"),
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
    ],
    ids=["short-row", "str-kept", "nan-s", "fractional-kept", "fractional-id", "s-above-1",
         "kept-above-original", "negative-kept"],
)
def test_cli_malformed_consistency_csv_is_data_error(pipeline, tmp_path, capsys, edit, reason):
    """A consistency.csv row with a missing, non-numeric, non-finite,
    fractional or out-of-range value makes `train` exit 3 naming the file and
    line, where a short row or a non-numeric kept used to give a ValueError
    and a nan s or kept above original was read as it stood."""
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


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("edit,reason", list(BAD_SCORE_KEYS.values()), ids=list(BAD_SCORE_KEYS))
def test_cli_bad_consistency_keys_is_data_error(pipeline, tmp_path, capsys, command, edit, reason):
    """A consistency.csv row that repeats an earlier row's (query, positive,
    prompt) key, names a view that is not a map view or a prompt that is not
    in prompts.csv makes `train` and `ablate` exit 3 naming the file and
    line, where the repeat used to replace the earlier score and the others
    were kept as they stood."""
    variants = tmp_path / "variants"
    shutil.copytree(pipeline["world"], tmp_path / "world")
    shutil.copytree(pipeline["variants"], variants)
    path = variants / "consistency.csv"
    lines = path.read_text().splitlines()
    lines[2] = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    if command == "train":
        argv = ["train", "--config", pipeline["cfg"], "--world", str(tmp_path / "world"),
                "--variants", str(variants), "--out", str(tmp_path / "m")]
    else:
        argv = ["ablate", "--config", pipeline["cfg"], "--out", str(tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{variants}/{reason}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


SCORES_HEADER = "query_id,positive_id,prompt,s,kept,original,valid@c_tau"

NOT_THE_WORLDS_SCORES = {
    "lone-line": (lambda lines: ["x"], f"consistency.csv:1: the header is not {SCORES_HEADER}"),
    "renamed-column": (
        lambda lines: [lines[0].replace("kept", "kapt")] + lines[1:],
        f"consistency.csv:1: the header is not {SCORES_HEADER}",
    ),
    "header-alone": (lambda lines: lines[:1], "consistency.csv: no scores"),
    # views 0 and 6 are map views of TEST_CONFIG's world, but not a matching pair
    "foreign-pair": (
        lambda lines: lines[:1] + ["0,6,at night,0.5,1,2,1"],
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
    "ransac.iterations-str": ("ransac", "iterations", "1000"),
    "ransac.iterations-0": ("ransac", "iterations", 0),
    "ransac.seed": ("ransac", "seed", 3),
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
    "root.backend": (None, "backend", "bogus"),
    "root.codebook_size-str": (None, "codebook_size", "3"),
    "root.codebook_size-0": (None, "codebook_size", 0),
    "root.codebook_iters-negative": (None, "codebook_iters", -1),
    "root.codebook_seed-negative": (None, "codebook_seed", -1),
    "root.asmk_alpha-negative": (None, "asmk_alpha", -1.0),
    "root.asmk_alpha-0": (None, "asmk_alpha", 0),
    "root.asmk_alpha-nan": (None, "asmk_alpha", float("nan")),
    "root.asmk_sel_threshold-str": (None, "asmk_sel_threshold", "x"),
    "root.asmk_sel_threshold-inf": (None, "asmk_sel_threshold", float("inf")),
    "root.eval_ks-0": (None, "eval_ks", [0]),
    "root.eval_ks-empty": (None, "eval_ks", []),
    "root.eval_ks-str": (None, "eval_ks", "1"),
    "root.world_seed-negative": (None, "world_seed", -1),
    "root.world_seed-str": (None, "world_seed", "7"),
    "root.prompt_seed-float": (None, "prompt_seed", 1.5),
    "root.variant_seed-negative": (None, "variant_seed", -2),
    "root.query_conditions-str": (None, "query_conditions", "at night"),
    "root.query_conditions-repeated": (None, "query_conditions", ["at night", "at night"]),
    "world.num_landmarks-str": ("world", "num_landmarks", "5"),
    "world.num_map_views-float": ("world", "num_map_views", 16.0),
    "world.image_width-0": ("world", "image_width", 0),
    "world.min_coobs-0": ("world", "min_coobs", 0),
    "world.focal-0": ("world", "focal", 0.0),
    "world.street_length-nan": ("world", "street_length", float("nan")),
    "world.lateral_max-below-lateral_min": ("world", "lateral_max", 5.0),
    "world.heading_jitter_deg-negative": ("world", "heading_jitter_deg", -1.0),
    "world.noise-not-a-section": ("world", "noise", 3),
    "match.pixel_tol-negative": ("match", "pixel_tol", -1),
    "match.pixel_tol-str": ("match", "pixel_tol", "2"),
    "match.ratio-0": ("match", "ratio", 0),
    "match.ratio-above-1": ("match", "ratio", 1.5),
    "match.ratio-nan": ("match", "ratio", float("nan")),
    "root.thresholds-short-pair": (
        None, "thresholds", {"high": [0.25], "mid": [0.5, 5.0], "low": [5.0, 10.0]}
    ),
    "root.thresholds-missing-level": (None, "thresholds", {"high": [0.1, 1.0]}),
    "root.thresholds-extra-level": (
        None, "thresholds", {"high": [0.25, 2], "mid": [0.5, 5], "low": [5, 10], "top": [1, 1]}
    ),
    "root.thresholds-not-finite": (
        None, "thresholds", {"high": [0.25, float("inf")], "mid": [0.5, 5.0], "low": [5.0, 10.0]}
    ),
    "root.thresholds-str": (
        None, "thresholds", {"high": ["0.25", 2.0], "mid": [0.5, 5.0], "low": [5.0, 10.0]}
    ),
    "root.thresholds-not-increasing": (
        None, "thresholds", {"high": [0.25, 2.0], "mid": [0.25, 5.0], "low": [5.0, 10.0]}
    ),
}

BAD_NOISE = {
    "keypoint_sigma-negative": ("keypoint_sigma", -0.1),
    "descriptor_sigma-str": ("descriptor_sigma", "0.05"),
    "clutter_count-float": ("clutter_count", 5.0),
    "clutter_count-negative": ("clutter_count", -1),
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


ONE_SOURCE = {
    "train.seed": ("train", "seed", 1, "root seeds"),
    "train.c_tau": ("train", "c_tau", 0.2, "root c_tau"),
    "train.threshold_mode": ("train", "threshold_mode", "relative", "root threshold_mode"),
    "ransac.seed": ("ransac", "seed", 0, "derived from the world seed and the query id"),
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


def test_config_reference_lists_every_key_with_its_default(tmp_path):
    """A nested config built from every line of config.reference loads and
    equals the default config, and no key with another source is listed."""
    write_config_reference(tmp_path)
    data: dict = {}
    for line in (tmp_path / "config.reference").read_text().splitlines():
        if line.startswith(("#", "[")):
            continue
        dotted, value = line.split(" = ", 1)
        *sections, key = dotted.split(".")
        node = data
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = ast.literal_eval(value)
    assert config_from_dict(data) == ExperimentConfig()
    listed = {
        (section, key)
        for section, sub in data.items() if isinstance(sub, dict)
        for key in sub
    }
    assert listed.isdisjoint((s, k) for s, k, _, _ in ONE_SOURCE.values())


@pytest.mark.parametrize("key,value", list(BAD_NOISE.values()), ids=list(BAD_NOISE))
def test_cli_noise_config_error_names_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"world": {"noise": {key: value}}}))
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert "world.noise" in err
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
    """`evaluate` with k larger than the 16-view map, or with a malformed
    accuracy threshold, exits 2 naming the key before it writes any file
    (it used to exit 0 with k=40 rows, or fail with an IndexError after
    writing rankings.csv)."""
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


def test_cli_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["worldgen", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2


def test_cli_missing_world_is_data_error(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["variants", "--config", cfg, "--world", str(tmp_path / "missing"), "--out", str(tmp_path / "v")])
    assert rc == 3


def test_cli_negative_worldgen_seed_is_config_error(tmp_path, capsys):
    assert main(["worldgen", "--seed", "-1", "--out", str(tmp_path / "w")]) == 2
    assert "--seed" in capsys.readouterr().err
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
    assert cfg.train.margin == 0.7
    thr = cfg.accuracy_thresholds()
    assert thr.levels == [("high", 0.25, 2.0), ("mid", 0.5, 5.0), ("low", 5.0, 10.0)]


def test_config_custom_thresholds():
    cfg = config_from_dict({"thresholds": {"high": [0.1, 1.0], "mid": [1.0, 4.0], "low": [8.0, 20.0]}})
    assert cfg.accuracy_thresholds().levels == [("high", 0.1, 1.0), ("mid", 1.0, 4.0), ("low", 8.0, 20.0)]
    with pytest.raises(ConfigError, match="thresholds"):
        config_from_dict({"thresholds": {"high": [0.1, 1.0]}})


def test_ablate_small_grid(tmp_path):
    cfg = config_from_dict(TEST_CONFIG)
    cfg.seeds = [1]
    out = tmp_path / "ablation"
    report = cmd_ablate(cfg, out, methods=("baseline", "synth_geometry"))
    # every output but config.reference, against digests recorded before
    # the train configs came from one source
    pinned = json.loads((Path(__file__).parent / "data" / "cli_ablate_sha256.json").read_text())
    got = {rel: digest for rel, digest in dir_digest(out).items() if Path(rel).name != "config.reference"}
    assert got == pinned
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


@pytest.mark.parametrize("threshold_mode,c_tau", [("relative", 0.35), ("absolute", 4)])
def test_ablation_methods_train_with_root_keys(threshold_mode, c_tau):
    """Every ablation method trains with the root threshold_mode and c_tau
    (synth_uniform with the filter off) and the run's seed, the values that
    `variants` writes valid@c_tau with; synth_filtered used to keep the
    train section's threshold_mode."""
    cfg = config_from_dict({**TEST_CONFIG, "threshold_mode": threshold_mode, "c_tau": c_tau})
    for method in ABLATION_METHODS:
        tc = _method_train_config(cfg, method, seed=5)
        assert tc.threshold_mode == threshold_mode, method
        assert tc.c_tau == (0.0 if method == "synth_uniform" else c_tau), method
        assert tc.seed == 5


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
    assert {k: v for k, v in got.items() if Path(k).name != "config.reference"} == json.loads(
        (data / "cli_variants_sha256.json").read_text()
    )

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
        got |= {f"{name}/{rel}": d for rel, d in dir_digest(root).items() if rel != "config.reference"}
    assert got == json.loads((data / "cli_train_evaluate_sha256.json").read_text())
    got = {rel: d for rel, d in dir_digest(dirs["asmk"]).items() if rel != "config.reference"}
    assert got == json.loads((data / "cli_evaluate_asmk_sha256.json").read_text())

    ablate_cfg = config_from_dict({**TEST_CONFIG, "seeds": [1]})
    out = tmp_path / "ablation"
    cmd_ablate(ablate_cfg, out, methods=("baseline", "synth_geometry"))
    got = {rel: d for rel, d in dir_digest(out).items() if Path(rel).name != "config.reference"}
    assert got == json.loads((data / "cli_ablate_sha256.json").read_text())

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
