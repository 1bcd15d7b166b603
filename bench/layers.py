"""Per-layer metrics derived from the spans of a traced run.

Every workload reports the same metric names; a layer a workload does not run
reports 0. Times are inclusive of child spans unless the name says `self_s`.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Span, descendants, self_times

from synthloc import geometry
from workloads import C_TAU, TRAIN_MODES

MODES = tuple(mode for mode, _ in TRAIN_MODES)
BACKENDS = ("global_cosine", "asmk")
ARTIFACTS = ("world", "prompts", "variants", "scores", "model")
VERBS = ("worldgen", "variants", "train", "evaluate")
# Layers whose self times add up to the traced wall time; `bench` is the
# benchmark's own code inside the timed section (loops and output checks).
LAYERS = (
    "worldgen", "variants", "geometry", "embed", "index", "localize", "storage", "experiment",
    "bench",
)


def tail_percentile(n: int) -> int:
    """The highest whole percentile that still has at least ten samples
    beyond it; 50 when there are too few samples for any tail."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def nearest_rank(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def per_layer_metrics(
    spans: list[Span], root: int, traced, wall_untraced: float
) -> tuple[dict, list[str]]:
    """The per-layer metrics, and any inconsistency found while deriving them."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    put("worldgen.generate_world_s", total("worldgen.generate_world"), "s")
    put("variants.generate_all_variants_s", total("variants.generate_all_variants"), "s")
    put("variants.shift_queries_s", total("variants.shift_queries"), "s")

    scoring = by_name["geometry.score_world_variants"]
    stores = [s.info["result"] for s in scoring if "result" in s.info]
    scored = sum(len(st) for st in stores)
    valid = sum(geometry.validate_pair(sc, C_TAU) for st in stores for _, sc in st.items())
    put("geometry.score_world_variants_s", total("geometry.score_world_variants"), "s")
    put("geometry.scores", scored, "count")
    put("geometry.valid_ratio", valid / scored if scored else 0.0, "ratio")
    put("geometry.match_features_calls", len(by_name["geometry.match_features"]), "count")
    put("geometry.match_features_s", total("geometry.match_features"), "s")

    for mode in MODES:
        runs = [s for s in by_name["embed.train"] if s.info["mode"] == mode]
        seconds = sum(s.duration for s in runs)
        steps = sum(s.info["steps"] for s in runs)
        put(f"embed.train_s.{mode}", seconds, "s")
        put(f"embed.step_us.{mode}", 1e6 * seconds / steps if steps else 0.0, "us")
        fractions = [s.info.get("synth_fraction", 0.0) for s in runs]
        put(f"embed.synth_fraction.{mode}", mean(fractions), "ratio")
    put("embed.aggregate_calls", len(by_name["embed.aggregate"]), "count")

    put("index.train_codebook_s", total("index.train_codebook"), "s")
    put("index.build_index_s", total("index.build_index"), "s")
    for backend in BACKENDS:
        calls = [s.duration for s in by_name["index.retrieve"] if s.info["backend"] == backend]
        put(f"index.retrieve_us.{backend}", 1e6 * mean(calls), "us")

    solves_ms = [1e3 * s.duration for s in by_name["localize.sfm_localize"]]
    tail = tail_percentile(len(solves_ms))
    put("localize.sfm_localize_s", total("localize.sfm_localize"), "s")
    put("localize.sfm_localize_ms.p50", nearest_rank(solves_ms, 50), "ms")
    put("localize.sfm_localize_ms.tail", nearest_rank(solves_ms, tail), "ms")
    put("localize.sfm_localize_tail_pct", tail, "%")
    pnp = by_name["localize.pnp_ransac"]
    solved = [s for s in pnp if "inliers" in s.info]
    corr_solved = sum(s.info["corr"] for s in solved)
    put("localize.pnp_ransac_s", total("localize.pnp_ransac"), "s")
    put("localize.pnp_ransac_calls", len(pnp), "count")
    put("localize.pnp_corr_mean", mean(s.info["corr"] for s in pnp), "count")
    put(
        "localize.pnp_no_consensus_ratio",
        sum(s.info.get("error") == "NoConsensusError" for s in pnp) / len(pnp) if pnp else 0.0,
        "ratio",
    )
    put(
        "localize.pnp_inlier_ratio",
        sum(s.info["inliers"] for s in solved) / corr_solved if corr_solved else 0.0,
        "ratio",
    )

    for artifact in ARTIFACTS:
        put(f"storage.save_s.{artifact}", total(f"storage.save_{artifact}"), "s")
        put(f"storage.load_s.{artifact}", total(f"storage.load_{artifact}"), "s")
    put("storage.files_written", traced.files_written, "count")
    put("storage.bytes_written", traced.bytes_written, "B")

    selfs = self_times(spans)
    for verb in VERBS:
        verb_spans = [
            i for i, s in enumerate(spans) if s.name == "cli.main" and s.info["verb"] == verb
        ]
        put(f"cli.{verb}_s", sum(spans[i].duration for i in verb_spans), "s")
        own = sum(
            selfs[j]
            for i in verb_spans
            for j in descendants(spans, i)
            if spans[j].layer == "experiment"
        )
        put(f"experiment.self_s.{verb}", own, "s")

    per_layer = dict.fromkeys(LAYERS, 0.0)
    for i in descendants(spans, root):
        per_layer[spans[i].layer] += selfs[i]
    for layer, seconds in per_layer.items():
        put(f"self_s.{layer}", seconds, "s")

    problems = []
    wall = spans[root].duration
    if abs(sum(per_layer.values()) - wall) > 1e-6 * wall:
        problems.append(f"layer self times sum to {sum(per_layer.values())}, not {wall}")
    put("trace.wall_s", wall, "s")
    put("trace.untraced_wall_s", wall_untraced, "s")
    put("trace.overhead_pct", 100.0 * (wall - wall_untraced) / wall_untraced, "%")
    put("trace.spans", len(spans), "count")
    return metrics, problems
