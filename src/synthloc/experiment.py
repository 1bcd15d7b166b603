"""Experiment orchestration: configuration loading with strict key checking,
the five pipeline commands (worldgen, variants, train, evaluate, ablate), and
the consolidated ablation report."""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import storage
from .embed import EmbeddingModel, TrainConfig, average_models, check_trainable, train
from .errors import (
    ConfigError,
    DataError,
    InsufficientCorrespondencesError,
    NoConsensusError,
    require_distinct_integers,
    require_integer,
)
from .fanout import _fan_out
from .geometry import MatchParams, Scores, score_world_variants
from .index import BACKENDS, build_index, retrieve, train_codebook
from .localize import (
    LEVELS,
    PoseError,
    RansacParams,
    ewb_pose,
    localization_rate,
    pose_error,
    sfm_localize,
)
from .variants import P11_NAMES, PROMPT_SEED, default_prompt_set, generate_all_variants, shift_queries
from .worldgen import ViewImage, World, WorldConfig, derive_seed, generate_world


@dataclass
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    world_seed: int = 7
    variant_seed: int = 0
    c_tau: float = 0.2
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    backend: str = "global_cosine"
    codebook_size: int = 64
    codebook_seed: int = 0
    eval_ks: list[int] = field(default_factory=lambda: [1, 5])
    query_conditions: list[str] = field(default_factory=lambda: ["at night"])

    def __post_init__(self) -> None:
        for name in ("world_seed", "variant_seed"):
            require_integer(name, getattr(self, name), 0)
        if not (
            isinstance(self.query_conditions, list)
            and all(isinstance(c, str) for c in self.query_conditions)
        ):
            raise ValueError(
                f"query_conditions must be a list of prompt names, not {self.query_conditions!r}"
            )
        if len(set(self.query_conditions)) != len(self.query_conditions):
            raise ValueError(f"query_conditions must be distinct, not {self.query_conditions!r}")
        for cond in self.query_conditions:
            if cond not in P11_NAMES:
                raise ValueError(f"query_conditions: {cond!r} is not one of {', '.join(P11_NAMES)}")
        require_distinct_integers("seeds", self.seeds, 0)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}, not {self.backend!r}")
        for name, low in (("codebook_size", 1), ("codebook_seed", 0)):
            require_integer(name, getattr(self, name), low)
        require_distinct_integers("eval_ks", self.eval_ks, 1)
        self.train_config(self.seeds[0])  # the train section must be valid with the root keys

    def train_config(self, seed: int, **overrides) -> TrainConfig:
        """The train section with the root `c_tau`, the given seed and
        `overrides`: every training run's config."""
        root = {"seed": seed, "c_tau": self.c_tau}
        return replace(self.train, **{**root, **overrides})

    def check_eval_ks(self, n: int) -> None:
        """eval_ks may not ask for more views than the map's `n` hold."""
        if max(self.eval_ks) > n:
            raise ConfigError(f"eval_ks: k = {max(self.eval_ks)} exceeds the map's {n} views")


# Fields of a section whose value has one source elsewhere; a config that
# sets one is an error naming that source.
_NOT_KEYS = {
    "train.seed": "each training run takes its seed from the root seeds",
    "train.c_tau": "training takes c_tau from the root c_tau",
}


def _build_dataclass(cls, data: dict, path: str):
    known = {f.name: f for f in dataclasses.fields(cls)}
    section = path[:-1] or "root"
    kwargs = {}
    for key, value in data.items():
        if path + key in _NOT_KEYS:
            raise ConfigError(f"{path}{key} is not a config key: {_NOT_KEYS[path + key]}")
        if key not in known:
            raise ConfigError(f"unknown config key: {path}{key}")
        factory = known[key].default_factory
        if dataclasses.is_dataclass(factory):  # a field made by a dataclass is a section
            if not isinstance(value, dict):
                raise ConfigError(
                    f"invalid config section {section}: "
                    f"{key} must be a section of {key} keys, not {value!r}"
                )
            kwargs[key] = _build_dataclass(factory, value, f"{path}{key}.")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {section}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build_dataclass(ExperimentConfig, data, "")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key set twice is a ConfigError,
    where `json` would keep the later value alone."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config key {key} is set twice in one object")
        data[key] = value
    return data


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_worldgen(config: ExperimentConfig, out_dir: str | Path) -> World:
    world = generate_world(config.world, config.world_seed)
    storage.save_world(world, out_dir)
    return world


def _write_variants(
    world: World, config: ExperimentConfig, out_dir: str | Path
) -> tuple[dict[int, list[ViewImage]], Scores]:
    """Generate the variants of `world`'s map views, score them (on every
    CPU, through `score_world_variants`) and write the prompts, the editor
    record and the scores to `out_dir`. Returns the variants and scores."""
    d = world.landmarks.descriptors.shape[1]
    prompts = default_prompt_set(d, PROMPT_SEED)
    variants = generate_all_variants(world, prompts, config.variant_seed)
    scores = score_world_variants(world, variants, MatchParams())
    storage.save_prompts(prompts, out_dir)
    storage.save_variants(config.variant_seed, out_dir)
    storage.save_scores(scores, out_dir)
    return variants, scores


def cmd_variants(world_dir: str | Path, config: ExperimentConfig, out_dir: str | Path) -> None:
    _write_variants(storage.load_world(world_dir), config, out_dir)


def _load_variants_dir(variants_dir: str | Path, world: World) -> tuple[dict[int, list[ViewImage]], Scores]:
    """The variants and scores of a `variants` output directory. Its
    prompts.csv is parsed first, so that a malformed row is named by its
    line; then `load_variants` regenerates the variants from `world` with
    the prompt set `variants` draws with, which prompts.csv must hold."""
    storage.load_prompts(variants_dir)
    prompts = default_prompt_set(world.landmarks.descriptors.shape[1], PROMPT_SEED)
    variants = storage.load_variants(variants_dir, world, prompts)
    return variants, storage.load_scores(variants_dir, world, prompts)


def _train_and_save(
    world: World,
    variants: dict[int, list[ViewImage]] | None,
    scores: Scores | None,
    tc: TrainConfig,
    out: Path,
    suffix: str,
) -> EmbeddingModel:
    """Train one model and write it and its trace to `out` as
    `model<suffix>.csv` and `trace<suffix>.csv`."""
    model, trace = train(world, variants, scores, tc)
    storage.save_model(model, out / f"model{suffix}.csv")
    storage.save_trace(trace, out / f"trace{suffix}.csv")
    return model


def cmd_train(
    world_dir: str | Path,
    variants_dir: str | Path | None,
    config: ExperimentConfig,
    out_dir: str | Path,
) -> EmbeddingModel:
    world = storage.load_world(world_dir)
    out = Path(out_dir)
    variants = None
    scores = None
    if config.train.mode != "baseline":
        if variants_dir is None:
            raise DataError("training mode needs a variants directory")
        variants, scores = _load_variants_dir(variants_dir, world)

    def run(seed: int) -> EmbeddingModel:
        return _train_and_save(world, variants, scores, config.train_config(seed), out, f"_{seed}")

    averaged = average_models(_fan_out(run, config.seeds))
    storage.save_model(averaged, out / "model_avg.csv")
    return averaged


def _evaluation_queries(world: World, config: ExperimentConfig) -> list[ViewImage]:
    """The world's query views, then their shifts under each of the config's
    `query_conditions`. A world without query views has nothing to evaluate:
    DataError."""
    if not world.query_views:
        raise DataError("the world has no query views")
    d = world.landmarks.descriptors.shape[1]
    prompts = default_prompt_set(d, PROMPT_SEED)
    return shift_queries(world, prompts, config.query_conditions, config.variant_seed)


def evaluate_model(
    world: World, queries: list[ViewImage], model: EmbeddingModel, config: ExperimentConfig
) -> tuple[dict[int, list[tuple[int, float]]], list[dict], list[dict]]:
    """Retrieve each query's top max(eval_ks) map views with `model`, then
    estimate its pose at every k by the barycenter (ewb) and by PnP + RANSAC
    (sfm). Returns the rankings by query id, the localization rows (each
    holds its `PoseError`, or None for a failed sfm solve, whose status is
    the error) and the summary rows read off them: the percentage localized
    at each accuracy level per protocol, k and condition (all queries, then
    each condition, taken from the query id), a failed row counting as not
    localized. Writes nothing. Each query has its own RANSAC seed, so the
    queries are fanned out over the CPUs with `_fan_out`. A model whose
    projected descriptors overflow the codebook's k-means or a retrieval
    raises FloatingPointError."""
    codebook = None
    with np.errstate(over="raise", invalid="raise"):
        if config.backend == "asmk":
            local_vectors = np.concatenate([v.desc @ model.projection.T for v in world.map_views])
            cb_size = min(config.codebook_size, local_vectors.shape[0])
            codebook = train_codebook(local_vectors, cb_size, seed=config.codebook_seed)
        index = build_index(world.map_views, model, codebook)
    map_poses = {v.id: v.pose for v in world.map_views}
    map_views = {v.id: v for v in world.map_views}
    k_max = max(config.eval_ks)

    def localize_query(q: ViewImage) -> tuple[list, list[dict]]:
        with np.errstate(over="raise", invalid="raise"):
            ranked = retrieve(q, index, model, config.backend, k_max)
        rows = []

        def row(protocol: str, k: int, error: PoseError | None, status: str = "ok") -> dict:
            return {"query_id": q.id, "protocol": protocol, "k": k, "error": error, "status": status}

        rp = RansacParams(seed=derive_seed(world.seed, q.id))
        for k in config.eval_ks:
            rows.append(row("ewb", k, pose_error(ewb_pose(ranked, map_poses, k), q.pose)))
            try:
                est = sfm_localize(q, ranked, map_views, world.landmarks, model, k, MatchParams(), rp)
            except (InsufficientCorrespondencesError, NoConsensusError) as exc:
                rows.append(row("sfm", k, None, str(exc)))
                continue
            rows.append(row("sfm", k, pose_error(est, q.pose)))
        return ranked, rows

    rankings = {}
    rows = []
    for q, (ranked, q_rows) in zip(queries, _fan_out(localize_query, queries)):
        rankings[q.id] = ranked
        rows.extend(q_rows)

    condition = {q.id: q.condition for q in queries}
    grouped: dict[tuple[str, int, str], list[PoseError | None]] = {}
    for r in rows:
        for cond in ("all", condition[r["query_id"]]):
            grouped.setdefault((r["protocol"], r["k"], cond), []).append(r["error"])

    summary = []
    for protocol in ("ewb", "sfm"):
        for k in config.eval_ks:
            for cond in ["all", "original", *config.query_conditions]:
                rates = localization_rate(grouped.get((protocol, k, cond), []))
                summary.append({"protocol": protocol, "k": k, "condition": cond, **rates})
    return rankings, rows, summary


def _save_evaluation(
    evaluation: tuple[dict, list[dict], list[dict]], out_dir: str | Path
) -> list[dict]:
    rankings, rows, summary = evaluation
    out = Path(out_dir)
    storage.save_rankings(rankings, out / "rankings.csv")
    storage.save_localization(rows, out / "localization.csv")
    storage.save_summary(summary, out / "summary.csv")
    return summary


def cmd_evaluate(
    world_dir: str | Path,
    model_path: str | Path,
    config: ExperimentConfig,
    out_dir: str | Path,
) -> list[dict]:
    world = storage.load_world(world_dir)
    model = storage.load_model(model_path)
    config.check_eval_ks(len(world.map_views))
    d = world.landmarks.descriptors.shape[1]
    if model.d != d:
        raise DataError(
            f"{model_path}: the model projects {model.d}-dim descriptors, the world's have {d}"
        )
    queries = _evaluation_queries(world, config)
    try:
        evaluation = evaluate_model(world, queries, model, config)
    except FloatingPointError:
        raise DataError(f"{model_path}: the model's projected descriptors overflow retrieval") from None
    return _save_evaluation(evaluation, out_dir)


ABLATION_METHODS = ("baseline", "synth_uniform", "synth_filtered", "synth_geometry")


def _method_train_config(config: ExperimentConfig, method: str, seed: int) -> TrainConfig:
    """One ablation run's train config; one the root keys cannot train with is a ConfigError."""
    synth_mode = config.train.mode if config.train.mode != "baseline" else "swap_pi"
    overrides = {
        "baseline": {"mode": "baseline"},
        "synth_uniform": {"mode": synth_mode, "sampling": "uniform", "c_tau": 0.0},
        "synth_filtered": {"mode": synth_mode, "sampling": "uniform"},
        "synth_geometry": {"mode": synth_mode, "sampling": "geometry_aware"},
    }[method]
    try:
        return config.train_config(seed, **overrides)
    except ValueError as exc:
        raise ConfigError(f"ablation method {method} with c_tau = {config.c_tau}: {exc}") from exc


def cmd_ablate(config: ExperimentConfig, out_dir: str | Path) -> None:
    """Run the method grid over all seeds, evaluating each trained model, and
    write every run's summary rows (`ablation_raw.csv`) and their
    per-condition medians with min/max across seeds (`ablation.csv`). Every
    stage is computed afresh into `out_dir`: `world` and `variants` are
    rewritten whole, and the `runs` of an earlier call are removed first.
    The world is written and read back once, as `variants` and `train` read
    it; the variants and scores made from it are written and kept, and the
    (method, seed) runs are fanned out over the CPUs with `_fan_out`. A
    config a run cannot train or evaluate with, or whose world cannot be
    made or trained on, is refused before `out_dir` is touched: the world
    is generated and checked in memory first."""
    config.check_eval_ks(config.world.num_map_views)
    if config.world.num_query_views == 0:
        raise ConfigError("world.num_query_views: 0 query views leave ablate nothing to evaluate")
    jobs = [(method, seed) for method in ABLATION_METHODS for seed in config.seeds]
    train_configs = {job: _method_train_config(config, *job) for job in jobs}
    world = generate_world(config.world, config.world_seed)
    check_trainable(world, config.train)
    out = Path(out_dir)
    world_dir = out / "world"
    variants_dir = out / "variants"
    runs_dir = out / "runs"
    if runs_dir.exists():
        try:
            shutil.rmtree(runs_dir)
        except OSError as exc:
            raise DataError(f"cannot write {runs_dir}: {exc}") from None
    storage.save_world(world, world_dir)
    world = storage.load_world(world_dir)
    variants, scores = _write_variants(world, config, variants_dir)
    queries = _evaluation_queries(world, config)

    def run(job: tuple[str, int]) -> list[dict]:
        method, seed = job
        path = runs_dir / method / f"seed_{seed}"
        model = _train_and_save(world, variants, scores, train_configs[job], path, "")
        return _save_evaluation(evaluate_model(world, queries, model, config), path)

    # one row per (method, seed, protocol, k, condition), each percentage as
    # summary.csv holds it, so that a median over an even number of seeds is
    # the one the per-run files give
    rows = [
        ((method, seed, r["protocol"], r["k"], r["condition"]), [round(r[level], 2) for level in LEVELS])
        for (method, seed), summary in zip(jobs, _fan_out(run, jobs))
        for r in summary
    ]
    lines = ["method,seed,protocol,k,condition," + ",".join(f"pct_{level}" for level in LEVELS)]
    lines += [",".join(map(str, key)) + "".join(f",{x:.2f}" for x in pcts) for key, pcts in rows]
    storage._write_lines(out / "ablation_raw.csv", lines)

    groups: dict[tuple, list[list[float]]] = {}
    for (method, _, *rest), pcts in rows:
        groups.setdefault((method, *rest), []).append(pcts)
    stats = {"median": statistics.median, "min": min, "max": max}
    header = ",".join(f"{level}_{stat}" for level in LEVELS for stat in stats)
    lines = [f"method,protocol,k,condition,{header}"]
    for key in sorted(groups, key=lambda g: (ABLATION_METHODS.index(g[0]), *g[1:])):
        # zip gives each level's percentages over the seeds
        values = [f(pcts) for pcts in zip(*groups[key]) for f in stats.values()]
        lines.append(",".join(map(str, key)) + "".join(f",{x:.2f}" for x in values))
    storage._write_lines(out / "ablation.csv", lines)
