"""Experiment orchestration: configuration loading with strict key checking,
the five pipeline commands (worldgen, variants, train, evaluate, ablate), and
the consolidated ablation report."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
import statistics
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import storage
from .embed import EmbeddingModel, TrainConfig, average_models, train
from .errors import (
    ConfigError,
    DataError,
    SynthlocError,
    is_finite_number,
    is_integer,
    require_integer,
    require_number,
)
from .geometry import MatchParams, score_world_variants
from .index import BACKENDS, build_index, retrieve, train_codebook
from .localize import (
    AccuracyThresholds,
    RansacParams,
    ewb_pose,
    localization_rate,
    pose_error,
    sfm_localize,
)
from .variants import VariantStore, default_prompt_set, generate_all_variants, shift_queries
from .worldgen import RenderNoise, ViewImage, World, WorldConfig, derive_seed, generate_world


LEVELS = ("high", "mid", "low")  # accuracy buckets, strict to loose


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
        default_factory=lambda: {"high": [0.25, 2.0], "mid": [0.5, 5.0], "low": [5.0, 10.0]}
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
    except OSError as exc:
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
# fan-out over the CPUs
# ---------------------------------------------------------------------------

# True while this process computes a share of a `_fan_out` call, so that a
# call made from inside a share runs serially instead of forking again.
_in_share = False


def _fan_out(fn: Callable, items: Sequence) -> list:
    """`[fn(item) for item in items]`, computed by up to one process per CPU
    in this process's affinity mask.

    Ordering: the items are cut into n = min(CPUs, len(items)) contiguous
    shares. This process computes the first share and each of n - 1 forked
    children one other share; the results are joined in item order, so what
    the caller does with them does not depend on n. The call runs serially
    at n = 1, from inside a share of another call (calls never nest forks),
    and where the platform has no `os.fork` or `os.sched_getaffinity`.
    `fn` and the items reach the children through the fork's copy of memory;
    only the results travel back, pickled through a pipe.

    Errors: the first exception in item order is raised here. One raised in
    a child's share is pickled back and re-raised with its type kept, so a
    SynthlocError still reaches the CLI as one. A child that exits without
    sending a result raises RuntimeError naming its exit status.

    Reaping: every child is waited for before the call returns or raises;
    if this process's own share, or a child's, raises, the children still
    running are killed first. No child outlives the call, so none can still
    be writing files after it.
    """
    global _in_share
    if _in_share or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [fn(item) for item in items]
    n = min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    size, extra = divmod(len(items), n)
    cuts = [i * size + min(i, extra) for i in range(n + 1)]
    shares = [items[cuts[i]: cuts[i + 1]] for i in range(n)]

    children: dict[int, int | None] = {}  # pid -> read end of its pipe (None once read)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks. The
                # only other threads here are BLAS's pool, which OpenBLAS
                # stops before a fork and restarts after it.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_share(fn, share, write_fd)  # never returns
            os.close(write_fd)
            children[pid] = read_fd
        _in_share = True
        try:
            results = [fn(item) for item in shares[0]]
        finally:
            _in_share = False
        for pid, read_fd in list(children.items()):
            pipe = os.fdopen(read_fd, "rb")
            children[pid] = None
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0 or not data:
                raise RuntimeError(
                    f"fan-out child {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without sending a result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, read_fd in children.items():
            os.kill(pid, signal.SIGKILL)
            if read_fd is not None:
                os.close(read_fd)
            os.waitpid(pid, 0)


def _run_share(fn: Callable, share: Sequence, write_fd: int) -> None:
    """A forked child's part of `_fan_out`: compute `share`, pickle
    (True, results) or (False, exception) into `write_fd`, and leave through
    `os._exit`, never returning into the caller's code."""
    global _in_share
    _in_share = True
    status = 1
    try:
        try:
            message = (True, [fn(item) for item in share])
        except BaseException as exc:  # sent to the parent, which re-raises it
            message = (False, exc)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(f"fan-out result cannot be sent: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


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
    d = world.landmarks[0].base_descriptor.shape[0]
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
        prompts = storage.load_prompts(variants_dir)
        variants = VariantStore.from_mapping(storage.load_variants(variants_dir, world, prompts))
        scores = storage.load_scores(variants_dir, world, prompts)

    def run(seed: int) -> EmbeddingModel:
        model, trace = train(world, variants, scores, config.train_config(seed))
        storage.save_model(model, out / f"model_{seed}.csv")
        storage.save_trace(trace, out / f"trace_{seed}.csv")
        return model

    averaged = average_models(_fan_out(run, config.seeds))
    storage.save_model(averaged, out / "model_avg.csv")
    write_config_reference(out_dir)
    return averaged


def _evaluation_queries(world: World, config: ExperimentConfig) -> list[ViewImage]:
    """The world's query views, then their shifts under each of the config's
    `query_conditions`, which must name prompts of the default prompt set."""
    d = world.landmarks[0].base_descriptor.shape[0]
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
    sfm solve is a row whose status is the error) and the summary rows: the
    percentage localized at each accuracy level per protocol, k and
    condition. Writes nothing. Each query has its own RANSAC seed, so the
    queries are fanned out over the CPUs with `_fan_out`."""
    codebook = None
    if config.backend == "asmk":
        local_vectors = np.concatenate(
            [v.descriptors() @ model.projection.T for v in world.map_views]
        )
        cb_size = min(config.codebook_size, local_vectors.shape[0])
        codebook = train_codebook(
            local_vectors, cb_size, config.codebook_iters, config.codebook_seed
        )
    index = build_index(world.map_views, model, codebook)
    map_poses = {v.id: v.pose for v in world.map_views}
    map_views = {v.id: v for v in world.map_views}
    k_max = max(config.eval_ks)

    def localize_query(q: ViewImage) -> tuple[list, list[dict], list[tuple]]:
        ranked = retrieve(
            q, index, model, config.backend, k_max, config.asmk_alpha, config.asmk_sel_threshold
        )
        rows = []
        errors = []  # ((protocol, k, condition), PoseError, or None if sfm failed)

        def localized(protocol: str, k: int, err) -> None:
            rows.append(
                {
                    "query_id": q.id,
                    "protocol": protocol,
                    "k": k,
                    "tx_err": err.translation,
                    "rot_err": err.rotation,
                    "status": "ok",
                }
            )
            errors.append(((protocol, k, q.condition), err))

        for k in config.eval_ks:
            localized("ewb", k, pose_error(ewb_pose(ranked, map_poses, k), q.pose))
            rp = replace(config.ransac, seed=derive_seed(world.seed, q.id))
            try:
                est = sfm_localize(
                    q, ranked, map_views, world.landmarks, model, k, config.match, rp
                )
            except SynthlocError as exc:
                rows.append({"query_id": q.id, "protocol": "sfm", "k": k, "status": str(exc)})
                errors.append((("sfm", k, q.condition), None))
                continue
            localized("sfm", k, pose_error(est, q.pose))
        return ranked, rows, errors

    rankings = {}
    rows = []
    errors: dict[tuple[str, int, str], list] = {}
    for q, (ranked, q_rows, q_errors) in zip(queries, _fan_out(localize_query, queries)):
        rankings[q.id] = ranked
        rows.extend(q_rows)
        for key, err in q_errors:
            errors.setdefault(key, []).append(err)

    thresholds = config.accuracy_thresholds()
    conditions = ["all"] + ["original"] + [c for c in config.query_conditions]
    summary = []
    for protocol in ("ewb", "sfm"):
        for k in config.eval_ks:
            for cond in conditions:
                if cond == "all":
                    errs = sum(
                        (errors.get((protocol, k, c), []) for c in ["original"] + config.query_conditions),
                        [],
                    )
                else:
                    errs = errors.get((protocol, k, cond), [])
                rates = localization_rate(errs, thresholds)
                summary.append(
                    {
                        "protocol": protocol,
                        "k": k,
                        "condition": cond,
                        "high": rates["high"],
                        "mid": rates["mid"],
                        "low": rates["low"],
                    }
                )
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
    d = world.landmarks[0].base_descriptor.shape[0]
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

    variants = None
    scores = None
    if needs_variants:
        prompts = storage.load_prompts(variants_dir)
        variants = VariantStore.from_mapping(storage.load_variants(variants_dir, world, prompts))
        scores = storage.load_scores(variants_dir, world, prompts)

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
            synthetic = tc.mode != "baseline"
            model, trace = train(
                world, variants if synthetic else None, scores if synthetic else None, tc
            )
            storage.save_model(model, path / "model.csv")
            storage.save_trace(trace, path / "trace.csv")
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

    report = []
    keys = sorted(
        {(r["method"], r["protocol"], r["k"], r["condition"]) for r in raw_rows},
        key=lambda t: (methods.index(t[0]), t[1], t[2], t[3]),
    )
    for method, protocol, k, condition in keys:
        group = [
            r
            for r in raw_rows
            if (r["method"], r["protocol"], r["k"], r["condition"])
            == (method, protocol, k, condition)
        ]
        entry = {"method": method, "protocol": protocol, "k": k, "condition": condition}
        for level in ("high", "mid", "low"):
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
                for level in ("high", "mid", "low")
                for stat in ("median", "min", "max")
            )
        )
    storage._write_lines(out / "ablation.csv", lines)
    return report
