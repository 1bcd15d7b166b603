"""The benchmark's workloads.

Each workload has a set-up, which builds its inputs, and a timed section,
which runs synthloc's public functions on those inputs and checks their
outputs. Every call goes through the synthloc module attribute
(`embed.train`, not a name imported from it), so that the tracer's wrappers
see it.

The world is the ROADMAP's default world (`WorldConfig()` at the world seed,
7 unless the caller asks for another). The workload seed drives the rest of
the inputs: variant and query-shift noise, and codebook and RANSAC seeds.
Training always uses seed TRAIN_SEED. When the workload seed picked the
training seed, train_grid's localization rate moved by 13 points over five
seeds (criterion 8 takes a median over five training seeds for the same
reason), which would swamp the rate as a check that a change kept accuracy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from synthloc import cli, embed, errors, geometry, index, localize, variants, worldgen

# A localization attempt counts as localized within the paper's loosest
# accuracy level, the ("low", 5 m, 10 deg) bucket of every protocol.
MAX_TRANSLATION_M = 5.0
MAX_ROTATION_DEG = 10.0

# Criterion 8's training sizes.
TRAIN_SIZES = dict(
    episodes=16, pairs_per_episode=150, negative_pool_size=40, num_variants=2, embedding_dim=16
)
C_TAU = 0.2
TRAIN_SEED = 1  # criterion 8's first seed
TRAIN_MODES = (
    ("baseline", "uniform"),
    ("swap_pi", "uniform"),
    ("multi_k", "geometry_aware"),
    ("aggregated_k", "uniform"),
)
# The documented localization outcomes; they count as "not localized".
NOT_LOCALIZED = (errors.NoConsensusError, errors.InsufficientCorrespondencesError)
# How `evaluate` writes those two outcomes into localization.csv.
NOT_LOCALIZED_STATUS = ("no consensus", "insufficient correspondences")
PROMPT_SEED = 0
DESCRIPTOR_DIM = 32


@dataclass
class Outcome:
    """What one timed pass did and whether its outputs passed the checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    tries: int = 0  # localization attempts
    localized: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    files_written: int = 0
    bytes_written: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def attempt(self, pose_error: localize.PoseError | None) -> None:
        self.tries += 1
        if (
            pose_error is not None
            and pose_error.translation <= MAX_TRANSLATION_M
            and pose_error.rotation <= MAX_ROTATION_DEG
        ):
            self.localized += 1

    @property
    def pct_localized(self) -> float:
        return 100.0 * self.localized / self.tries if self.tries else 0.0

    def result_key(self) -> tuple:
        """The deterministic part of the outcome, equal across passes and
        between traced and untraced runs."""
        return (self.tries, self.localized, tuple(sorted(self.digests.items())))


def _world(world_seed: int) -> worldgen.World:
    return worldgen.generate_world(worldgen.WorldConfig(), world_seed)


def _ranking_problem(ranked: list[tuple[int, float]], k: int, map_ids: set[int]) -> str | None:
    ids = [vid for vid, _ in ranked]
    scores = [s for _, s in ranked]
    if len(ids) != k or len(set(ids)) != k or not set(ids) <= map_ids:
        return f"ranking {ids} is not {k} distinct map ids"
    if any(b > a for a, b in zip(scores, scores[1:])):
        return f"ranking scores {scores} increase"
    return None


# ---------------------------------------------------------------------------
# train_grid
# ---------------------------------------------------------------------------


def setup_train_grid(seed: int, world_seed: int, work: Path) -> dict:
    world = _world(world_seed)
    prompts = variants.default_prompt_set(DESCRIPTOR_DIM, PROMPT_SEED)
    vmap = variants.generate_all_variants(world, prompts, seed)
    scores = geometry.score_world_variants(world, vmap, geometry.MatchParams())
    queries = variants.shift_queries(world, prompts, prompts.names(), seed)
    return dict(
        seed=seed, world=world, store=variants.VariantStore.from_mapping(vmap),
        scores=scores, queries=queries,
    )


def run_train_grid(inputs: dict, out: Outcome) -> None:
    """One model per training mode, each evaluated by cosine retrieval and
    the barycenter pose at k=1 on the clean queries and their shifts under
    every prompt."""
    world = inputs["world"]
    map_poses = {v.id: v.pose for v in world.map_views}
    for mode, sampling in TRAIN_MODES:
        config = embed.TrainConfig(
            mode=mode, sampling=sampling, c_tau=C_TAU, seed=TRAIN_SEED, **TRAIN_SIZES
        )
        synthetic = mode != "baseline"
        out.attempted += 1
        try:
            model, trace = embed.train(
                world,
                inputs["store"] if synthetic else None,
                inputs["scores"] if synthetic else None,
                config,
            )
        except Exception as exc:  # any raise is a failed operation
            out.fail(f"train {mode}: {type(exc).__name__}: {exc}")
            continue
        if not all(np.isfinite(row.mean_loss) for row in trace):
            out.fail(f"train {mode}: non-finite loss in trace")
        if model.projection.shape != (16, DESCRIPTOR_DIM) or not np.all(
            np.isfinite(model.projection)
        ):
            out.fail(f"train {mode}: projection {model.projection.shape} not finite (16, 32)")

        db = index.build_index(world.map_views, model)
        for q in inputs["queries"]:
            out.attempted += 1
            try:
                ranked = index.retrieve(q, db, model, "global_cosine", 1)
                err = localize.pose_error(localize.ewb_pose(ranked, map_poses, 1), q.pose)
            except Exception as exc:  # any raise is a failed operation
                out.fail(f"ewb {mode} query {q.id}: {type(exc).__name__}: {exc}")
                continue
            out.attempt(err)

# ---------------------------------------------------------------------------
# localize_sfm
# ---------------------------------------------------------------------------

SFM_KS = (1, 5)
SFM_TOP = 5
CODEBOOK_SIZE = 64
CODEBOOK_ITERS = 10


def setup_localize_sfm(seed: int, world_seed: int, work: Path) -> dict:
    world = _world(world_seed)
    prompts = variants.default_prompt_set(DESCRIPTOR_DIM, PROMPT_SEED)
    queries = variants.shift_queries(world, prompts, prompts.names(), seed)
    return dict(seed=seed, world=world, queries=queries)


def _pose_problem(pose: worldgen.CameraPose) -> str | None:
    if abs(float(np.linalg.norm(pose.rotation)) - 1.0) > 1e-9:
        return "rotation is not a unit quaternion"
    if not np.all(np.isfinite(pose.position)):
        return "camera center is not finite"
    return None


def run_localize_sfm(inputs: dict, out: Outcome) -> None:
    """Identity-projection model, ASMK top-5 retrieval, PnP+RANSAC at each
    k in SFM_KS for every query."""
    seed, world = inputs["seed"], inputs["world"]
    model = embed.EmbeddingModel(np.eye(DESCRIPTOR_DIM))
    local = np.concatenate([v.descriptors() @ model.projection.T for v in world.map_views])
    codebook = index.train_codebook(local, CODEBOOK_SIZE, CODEBOOK_ITERS, seed)
    db = index.build_index(world.map_views, model, codebook)
    map_views = {v.id: v for v in world.map_views}
    params = geometry.MatchParams()
    for q in inputs["queries"]:
        out.attempted += 1
        try:
            ranked = index.retrieve(q, db, model, "asmk", SFM_TOP)
        except Exception as exc:  # any raise is a failed operation
            out.fail(f"retrieve query {q.id}: {type(exc).__name__}: {exc}")
            continue
        problem = _ranking_problem(ranked, SFM_TOP, set(map_views))
        if problem:
            out.fail(f"query {q.id}: {problem}")
        for k in SFM_KS:
            out.attempted += 1
            ransac = localize.RansacParams(seed=worldgen.derive_seed(seed, q.id))
            try:
                pose = localize.sfm_localize(
                    q, ranked, map_views, world.landmarks, model, k, params, ransac
                )
            except NOT_LOCALIZED:
                out.attempt(None)
                continue
            except Exception as exc:  # any other raise is a failed operation
                out.fail(f"sfm query {q.id} k={k}: {type(exc).__name__}: {exc}")
                continue
            problem = _pose_problem(pose)
            if problem:
                out.fail(f"sfm query {q.id} k={k}: {problem}")
            out.attempt(localize.pose_error(pose, q.pose))


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

OUTPUT_DIRS = ("world", "variants", "models", "eval")
# Night and two kinds of weather, the paper's question. One condition gives
# 160 attempts, too few for a steady localization rate across seeds.
CLI_CONDITIONS = ("at night", "with rain", "with snow")


def setup_cli_pipeline(seed: int, world_seed: int, work: Path) -> dict:
    """Writes the config and runs `worldgen`, the verb that makes the
    pipeline's input. Writing the config alone takes 0.1 ms of file-system
    calls whose time varied fivefold from run to run, too little to time."""
    run_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
    config = {
        "world_seed": world_seed,
        "variant_seed": seed,
        "codebook_seed": seed,
        "seeds": [TRAIN_SEED],
        "query_conditions": list(CLI_CONDITIONS),
        "c_tau": C_TAU,
        "train": {"mode": "multi_k", "sampling": "geometry_aware", **TRAIN_SIZES},
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    world_dir = run_dir / "world"
    code = cli.main(["worldgen", "--config", str(config_path), "--out", str(world_dir)])
    return dict(run_dir=run_dir, config=str(config_path), world=str(world_dir), worldgen=code)


def _digest(root: Path) -> tuple[str, int, int]:
    """sha256 over the relative path and bytes of every file, and the file
    count and byte total."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data + b"\0")
        files += 1
        nbytes += len(data)
    return h.hexdigest(), files, nbytes


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli_pipeline(inputs: dict, out: Outcome) -> Path:
    """variants -> train -> evaluate through `synthloc.cli.main` on the
    set-up's world, into a fresh directory per pass, which it returns."""
    cfg, world = inputs["config"], inputs["world"]
    root = Path(tempfile.mkdtemp(prefix="pass-", dir=inputs["run_dir"]))
    d = {name: str(root / name) for name in OUTPUT_DIRS[1:]}
    out.attempted += 1
    if inputs["worldgen"] != 0:
        out.fail(f"worldgen returned {inputs['worldgen']}")
        return root
    verbs = [
        ["variants", "--config", cfg, "--world", world, "--out", d["variants"]],
        ["train", "--config", cfg, "--world", world, "--variants", d["variants"],
         "--out", d["models"]],
        ["evaluate", "--config", cfg, "--world", world,
         "--model", str(Path(d["models"]) / "model_avg.csv"), "--out", d["eval"]],
    ]
    for argv in verbs:
        out.attempted += 1
        try:
            code = cli.main(argv)
        except Exception as exc:  # any raise is a failed operation
            out.fail(f"{argv[0]}: {type(exc).__name__}: {exc}")
            break
        if code != 0:
            out.fail(f"{argv[0]} returned {code}")
            break
    return root


def finish_cli_pipeline(inputs: dict, out: Outcome, root: Path) -> None:
    """Untimed: check the pass's outputs, digest them and delete them."""
    dirs = {"world": Path(inputs["world"])} | {name: root / name for name in OUTPUT_DIRS[1:]}
    try:
        if not out.failures:
            _check_cli_outputs(dirs, out)
            for name, path in dirs.items():
                digest, files, nbytes = _digest(path)
                out.digests[name] = digest
                out.files_written += files
                out.bytes_written += nbytes
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _check_cli_outputs(dirs: dict[str, Path], out: Outcome) -> None:
    n_pairs = len(_csv_rows(dirs["world"] / "pairs.csv"))
    n_prompts = len(variants.default_prompt_set(DESCRIPTOR_DIM, PROMPT_SEED).shifts)
    scores = _csv_rows(dirs["variants"] / "consistency.csv")
    if len(scores) != 2 * n_pairs * n_prompts:
        out.fail(f"consistency.csv has {len(scores)} rows, expected {2 * n_pairs * n_prompts}")
    if not all(0.0 <= float(r["s"]) <= 1.0 for r in scores):
        out.fail("consistency.csv has s outside [0, 1]")
    summary = _csv_rows(dirs["eval"] / "summary.csv")
    # protocols x k x conditions, where the conditions are all, original and each shift
    expected = 2 * 2 * (2 + len(CLI_CONDITIONS))
    if len(summary) != expected:
        out.fail(f"summary.csv has {len(summary)} rows, expected {expected}")
    for row in _csv_rows(dirs["eval"] / "localization.csv"):
        if row["status"] == "ok":
            out.attempt(localize.PoseError(float(row["tx_err_m"]), float(row["rot_err_deg"])))
        elif row["status"] in NOT_LOCALIZED_STATUS:
            out.attempt(None)
        else:
            out.fail(f"query {row['query_id']} k={row['k']}: {row['status']}")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, int, Path], dict]  # (seed, world_seed, work_dir) -> inputs
    run: Callable[[dict, Outcome], object]  # the timed section; returns state for `finish`
    finish: Callable[[dict, Outcome, object], None] | None = None  # untimed checks
    setup_repeats: int = 5  # set-ups per run; setup_s is their median


WORKLOADS = {
    "train_grid": Workload(setup_train_grid, run_train_grid, setup_repeats=3),
    "localize_sfm": Workload(setup_localize_sfm, run_localize_sfm),
    "cli_pipeline": Workload(
        setup_cli_pipeline, run_cli_pipeline, finish_cli_pipeline, setup_repeats=5
    ),
}
