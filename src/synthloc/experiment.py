"""Experiment orchestration: configuration loading with strict key checking,
the five pipeline commands (worldgen, variants, train, evaluate, ablate), and
the consolidated ablation report."""

from __future__ import annotations

import dataclasses
import json
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import storage
from .embed import EmbeddingModel, TrainConfig, average_models, train
from .errors import (
    ConfigError,
    DataError,
    InsufficientCorrespondencesError,
    NoConsensusError,
    is_finite_number,
    is_integer,
    require_integer,
    require_number,
)
from .fanout import _fan_out
from .geometry import MatchParams, Scores, score_world_variants
from .index import BACKENDS, build_index, retrieve, train_codebook
from .localize import (
    AccuracyThresholds,
    PoseError,
    RansacParams,
    ewb_pose,
    localization_rate,
    pose_error,
    sfm_localize,
)
from .variants import default_prompt_set, generate_all_variants, shift_queries
from .worldgen import RenderNoise, ViewImage, World, WorldConfig, derive_seed, generate_world


LEVELS = tuple(name for name, _, _ in AccuracyThresholds().levels)  # strict to loose


@dataclass
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    match: MatchParams = field(default_factory=MatchParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    ransac: RansacParams = field(default_factory=RansacParams)
    world_seed: int = 7
    prompt_seed: int = 0
    variant_seed: int = 0
    c_tau: float = 0.2
    threshold_mode: str = "relative"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    backend: str = "global_cosine"
    codebook_size: int = 64
    codebook_iters: int = 10
    codebook_seed: int = 0
    asmk_alpha: float = 3.0
    asmk_sel_threshold: float = 0.0
    eval_ks: list[int] = field(default_factory=lambda: [1, 5])
    query_conditions: list[str] = field(default_factory=lambda: ["at night"])
    # accuracy buckets: {level: [max translation m, max rotation deg]}
    thresholds: dict = field(
        default_factory=lambda: {name: [t, r] for name, t, r in AccuracyThresholds().levels}
    )

    def __post_init__(self) -> None:
        for name in ("world_seed", "prompt_seed", "variant_seed"):
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
        if not (
            isinstance(self.seeds, list)
            and self.seeds
            and all(is_integer(s) and s >= 0 for s in self.seeds)
        ):
            raise ValueError(f"seeds must be a non-empty list of integers >= 0, not {self.seeds!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}, not {self.backend!r}")
        for name, low in (("codebook_size", 1), ("codebook_iters", 1), ("codebook_seed", 0)):
            require_integer(name, getattr(self, name), low)
        require_number("asmk_alpha", self.asmk_alpha, 0, strict=True)
        require_number("asmk_sel_threshold", self.asmk_sel_threshold)
        if not (
            isinstance(self.eval_ks, list)
            and self.eval_ks
            and all(is_integer(k) and k >= 1 for k in self.eval_ks)
        ):
            raise ValueError(f"eval_ks must be a non-empty list of integers >= 1, not {self.eval_ks!r}")
        self.train_config(self.seeds[0])  # the train section must be valid with the root keys
        if not (
            isinstance(self.thresholds, dict)
            and sorted(self.thresholds) == sorted(LEVELS)
            and all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_finite_number, pair))
                for pair in self.thresholds.values()
            )
        ):
            raise ValueError(
                "thresholds must map exactly high, mid and low to [max translation m, "
                f"max rotation deg] pairs of finite numbers, not {self.thresholds!r}"
            )
        self.accuracy_thresholds()  # raises unless strictly increasing

    def train_config(self, seed: int, **overrides) -> TrainConfig:
        """The train section with the root `c_tau` and `threshold_mode`, the
        given seed and `overrides`: every training run's config."""
        root = {"seed": seed, "c_tau": self.c_tau, "threshold_mode": self.threshold_mode}
        return replace(self.train, **{**root, **overrides})

    def accuracy_thresholds(self) -> AccuracyThresholds:
        return AccuracyThresholds(
            levels=[
                (name, float(self.thresholds[name][0]), float(self.thresholds[name][1]))
                for name in LEVELS
            ]
        )

    def check_eval_ks(self, world: World) -> None:
        """eval_ks may not ask for more views than the map holds."""
        n = len(world.map_views)
        if max(self.eval_ks) > n:
            raise ConfigError(f"eval_ks: k = {max(self.eval_ks)} exceeds the map's {n} views")


_NESTED = {
    "world": WorldConfig,
    "match": MatchParams,
    "train": TrainConfig,
    "ransac": RansacParams,
    "noise": RenderNoise,
}


# Fields of a section whose value has one source elsewhere; a config that
# sets one is an error naming that source.
_NOT_KEYS = {
    "train.seed": "each training run takes its seed from the root seeds",
    "train.c_tau": "training takes c_tau from the root c_tau",
    "train.threshold_mode": "training takes threshold_mode from the root threshold_mode",
    "ransac.seed": "each query's RANSAC seed is derived from the world seed and the query id",
}


def _build_dataclass(cls, data: dict, path: str):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if path + key in _NOT_KEYS:
            raise ConfigError(f"{path}{key} is not a config key: {_NOT_KEYS[path + key]}")
        if key not in known:
            raise ConfigError(f"unknown config key: {path}{key}")
        if key in _NESTED and isinstance(value, dict):
            kwargs[key] = _build_dataclass(_NESTED[key], value, f"{path}{key}.")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {path or 'root'}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build_dataclass(ExperimentConfig, data, "")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return config_from_dict(data)


def _reference_lines(cls, path: str) -> list[str]:
    lines = []
    for f in dataclasses.fields(cls):
        if f.name.startswith("_") or path + f.name in _NOT_KEYS:
            continue
        if f.name in _NESTED:
            lines.append(f"[{path}{f.name}]")
            lines.extend(_reference_lines(_NESTED[f.name], f"{path}{f.name}."))
            continue
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:
            default = ""
        lines.append(f"{path}{f.name} = {default!r}")
    return lines


def write_config_reference(out_dir: str | Path) -> None:
    """Every configurable key with its default, for copy-paste into a JSON
    config (sections map to nested objects)."""
    lines = ["# configuration keys and defaults"]
    lines.extend(_reference_lines(ExperimentConfig, ""))
    storage._write_lines(Path(out_dir) / "config.reference", lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_worldgen(config: ExperimentConfig, out_dir: str | Path, seed: int | None = None) -> World:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, not {seed}")
    world = generate_world(config.world, config.world_seed if seed is None else seed)
    storage.save_world(world, out_dir)
    write_config_reference(out_dir)
    return world


def cmd_variants(world_dir: str | Path, config: ExperimentConfig, out_dir: str | Path) -> None:
    """Scoring and writing the variant files do not depend on each other,
    so `_fan_out` runs them side by side."""
    world = storage.load_world(world_dir)
    d = world.landmarks.descriptors.shape[1]
    prompts = default_prompt_set(d, config.prompt_seed)
    variants = generate_all_variants(world, prompts, config.variant_seed)
    storage.save_prompts(prompts, out_dir)
    scores, _ = _fan_out(
        lambda task: task(),
        [
            lambda: score_world_variants(world, variants, config.match),
            lambda: storage.save_variants(variants, out_dir),
        ],
    )
    storage.save_scores(scores, config.c_tau, config.threshold_mode, out_dir)
    write_config_reference(out_dir)


def _load_variants_dir(variants_dir: str | Path, world: World) -> tuple[dict[int, list[ViewImage]], Scores]:
    """The variants and scores of a `variants` output directory, read with its
    prompts."""
    prompts = storage.load_prompts(variants_dir)
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
    write_config_reference(out_dir)
    return averaged


def _evaluation_queries(world: World, config: ExperimentConfig) -> list[ViewImage]:
    """The world's query views, then their shifts under each of the config's
    `query_conditions`, which must name prompts of the default prompt set.
    A world without query views has nothing to evaluate: DataError."""
    if not world.query_views:
        raise DataError("the world has no query views")
    d = world.landmarks.descriptors.shape[1]
    prompts = default_prompt_set(d, config.prompt_seed)
    for cond in config.query_conditions:
        if cond not in prompts.names():
            raise ConfigError(f"unknown query condition {cond!r}")
    return shift_queries(world, prompts, config.query_conditions, config.variant_seed)


def evaluate_model(
    world: World, queries: list[ViewImage], model: EmbeddingModel, config: ExperimentConfig
) -> tuple[dict[int, list[tuple[int, float]]], list[dict], list[dict]]:
    """Retrieve each query's top max(eval_ks) map views with `model`, then
    estimate its pose at every k by the barycenter (ewb) and by PnP + RANSAC
    (sfm). Returns the rankings by query id, the localization rows (a failed
    sfm solve is a row whose status is the error) and the summary rows read
    off them: the percentage localized at each accuracy level per protocol,
    k and condition (all queries, then each condition, taken from the query
    id), a failed row counting as not localized. Writes nothing. Each query
    has its own RANSAC seed, so the queries are fanned out over the CPUs
    with `_fan_out`."""
    codebook = None
    if config.backend == "asmk":
        local_vectors = np.concatenate([v.desc @ model.projection.T for v in world.map_views])
        cb_size = min(config.codebook_size, local_vectors.shape[0])
        codebook = train_codebook(
            local_vectors, cb_size, config.codebook_iters, config.codebook_seed
        )
    index = build_index(world.map_views, model, codebook)
    map_poses = {v.id: v.pose for v in world.map_views}
    map_views = {v.id: v for v in world.map_views}
    k_max = max(config.eval_ks)

    def localize_query(q: ViewImage) -> tuple[list, list[dict]]:
        ranked = retrieve(
            q, index, model, config.backend, k_max, config.asmk_alpha, config.asmk_sel_threshold
        )
        rows = []

        def row(protocol: str, k: int, err: PoseError) -> dict:
            return {
                "query_id": q.id,
                "protocol": protocol,
                "k": k,
                "tx_err": err.translation,
                "rot_err": err.rotation,
                "status": "ok",
            }

        for k in config.eval_ks:
            rows.append(row("ewb", k, pose_error(ewb_pose(ranked, map_poses, k), q.pose)))
            rp = replace(config.ransac, seed=derive_seed(world.seed, q.id))
            try:
                est = sfm_localize(
                    q, ranked, map_views, world.landmarks, model, k, config.match, rp
                )
            except (InsufficientCorrespondencesError, NoConsensusError) as exc:
                rows.append({"query_id": q.id, "protocol": "sfm", "k": k, "status": str(exc)})
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
        err = PoseError(r["tx_err"], r["rot_err"]) if r["status"] == "ok" else None
        for cond in ("all", condition[r["query_id"]]):
            grouped.setdefault((r["protocol"], r["k"], cond), []).append(err)

    thresholds = config.accuracy_thresholds()
    summary = []
    for protocol in ("ewb", "sfm"):
        for k in config.eval_ks:
            for cond in ["all", "original", *config.query_conditions]:
                rates = localization_rate(grouped.get((protocol, k, cond), []), thresholds)
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
    write_config_reference(out_dir)
    return summary


def cmd_evaluate(
    world_dir: str | Path,
    model_path: str | Path,
    config: ExperimentConfig,
    out_dir: str | Path,
) -> list[dict]:
    world = storage.load_world(world_dir)
    model = storage.load_model(model_path)
    config.check_eval_ks(world)
    d = world.landmarks.descriptors.shape[1]
    if model.d != d:
        raise DataError(
            f"{model_path}: the model projects {model.d}-dim descriptors, the world's have {d}"
        )
    queries = _evaluation_queries(world, config)
    return _save_evaluation(evaluate_model(world, queries, model, config), out_dir)


ABLATION_METHODS = ("baseline", "synth_uniform", "synth_filtered", "synth_geometry")


def _method_train_config(config: ExperimentConfig, method: str, seed: int) -> TrainConfig:
    synth_mode = config.train.mode if config.train.mode != "baseline" else "swap_pi"
    if method == "baseline":
        return config.train_config(seed, mode="baseline")
    if method == "synth_uniform":
        return config.train_config(seed, mode=synth_mode, sampling="uniform", c_tau=0.0)
    if method == "synth_filtered":
        return config.train_config(seed, mode=synth_mode, sampling="uniform")
    if method == "synth_geometry":
        return config.train_config(seed, mode=synth_mode, sampling="geometry_aware")
    raise ConfigError(f"unknown ablation method {method!r}")


def cmd_ablate(
    config: ExperimentConfig,
    out_dir: str | Path,
    methods: tuple[str, ...] = ABLATION_METHODS,
) -> list[dict]:
    """Run the method grid over all seeds, evaluating each trained model, and
    tabulate per-condition medians with min/max across seeds. Completed runs
    (marked by a `done` file) are reused. The world, variants, scores and
    shifted queries are read or built once, and the runs left to do are
    fanned out over the CPUs with `_fan_out`."""
    out = Path(out_dir)
    world_dir = out / "world"
    variants_dir = out / "variants"
    if not (world_dir / "meta.csv").exists():
        cmd_worldgen(config, world_dir)
    world = storage.load_world(world_dir)
    config.check_eval_ks(world)
    needs_variants = any(m != "baseline" for m in methods)
    if needs_variants and not (variants_dir / "consistency.csv").exists():
        cmd_variants(world_dir, config, variants_dir)

    variants, scores = _load_variants_dir(variants_dir, world) if needs_variants else (None, None)

    def run_dir(method: str, seed: int) -> Path:
        return out / "runs" / method / f"seed_{seed}"

    pending = [
        (run_dir(method, seed), _method_train_config(config, method, seed))
        for method in methods
        for seed in config.seeds
        if not (run_dir(method, seed) / "done").exists()
    ]
    if pending:
        queries = _evaluation_queries(world, config)

        def run(job: tuple[Path, TrainConfig]) -> None:
            path, tc = job
            model = _train_and_save(world, variants, scores, tc, path, "")
            _save_evaluation(evaluate_model(world, queries, model, config), path)
            storage._write_lines(path / "done", ["ok"])

        _fan_out(run, pending)

    raw_rows = []
    for method in methods:
        for seed in config.seeds:
            for row in storage.load_summary(run_dir(method, seed) / "summary.csv"):
                raw_rows.append({"method": method, "seed": seed, **row})

    lines = ["method,seed,protocol,k,condition,pct_high,pct_mid,pct_low"]
    for r in raw_rows:
        lines.append(
            f"{r['method']},{r['seed']},{r['protocol']},{r['k']},{r['condition']},"
            f"{r['high']:.2f},{r['mid']:.2f},{r['low']:.2f}"
        )
    storage._write_lines(out / "ablation_raw.csv", lines)

    groups: dict[tuple, list[dict]] = {}
    for r in raw_rows:
        groups.setdefault((r["method"], r["protocol"], r["k"], r["condition"]), []).append(r)
    report = []
    for (method, protocol, k, condition), group in sorted(
        groups.items(), key=lambda item: (methods.index(item[0][0]), *item[0][1:])
    ):
        entry = {"method": method, "protocol": protocol, "k": k, "condition": condition}
        for level in LEVELS:
            vals = [g[level] for g in group]
            entry[f"{level}_median"] = statistics.median(vals)
            entry[f"{level}_min"] = min(vals)
            entry[f"{level}_max"] = max(vals)
        report.append(entry)

    lines = [
        "method,protocol,k,condition,"
        "high_median,high_min,high_max,mid_median,mid_min,mid_max,low_median,low_min,low_max"
    ]
    for r in report:
        lines.append(
            f"{r['method']},{r['protocol']},{r['k']},{r['condition']},"
            + ",".join(
                f"{r[f'{level}_{stat}']:.2f}"
                for level in LEVELS
                for stat in ("median", "min", "max")
            )
        )
    storage._write_lines(out / "ablation.csv", lines)
    return report
