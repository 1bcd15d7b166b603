"""synthloc benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--world-seed N] [--compare RESULT.json]

NAME is train_grid, localize_sfm, cli_pipeline, or `all` (each workload in its
own process, one after another). With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it prints the per-layer metrics of a traced run. Each
metric is printed as `name value unit`; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
full result, with provenance, is written to bench/out/. The exit code is 0
only when every output check passed. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
DEFAULT_SEED = 7
WORKLOAD_NAMES = ("train_grid", "localize_sfm", "cli_pipeline")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pct_localized": "%"}


def _import_from_checkout() -> None:
    """Import synthloc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import synthloc

    if not Path(synthloc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"synthloc imported from {synthloc.__file__}, not {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(seed: int, world_seed: int) -> dict:
    import numpy as np

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
        "world_seed": world_seed,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _consistent(outcomes: list) -> int:
    """Passes over the same inputs must give the same results; each pass that
    differs from the first counts as one failed operation."""
    return sum(1 for o in outcomes[1:] if o.result_key() != outcomes[0].result_key())


def run_untraced(workload, seed: int, world_seed: int, seconds: float, work: Path) -> dict:
    from clock import Clock
    from workloads import Outcome

    # All set-ups run under one clock, so that a set-up far shorter than the
    # reference loop is not measured right after the loop has run. Each
    # set-up's raw time is scaled by the whole phase's factor.
    raw_setups = []
    with Clock() as setup_clock:
        for _ in range(workload.setup_repeats):
            t0 = setup_clock.elapsed_raw_s()
            inputs = workload.setup(seed, world_seed, work)
            raw_setups.append(setup_clock.elapsed_raw_s() - t0)
    setup_scale = setup_clock.scaled_s / setup_clock.raw_s

    passes, outcomes = [], []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        if passes:
            # Every pass starts from fresh inputs: a pass fills lazy caches on
            # the views it touches, which would make a second pass cheaper.
            inputs = workload.setup(seed, world_seed, work)
        out = Outcome()
        with Clock() as clock:
            state = workload.run(inputs, out)
        passes.append(clock)
        if workload.finish:
            workload.finish(inputs, out, state)
        outcomes.append(out)

    mismatched = _consistent(outcomes)
    values = {
        "setup_s": statistics.median(raw_setups) * setup_scale,
        "wall_s": statistics.median(c.scaled_s for c in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pct_localized": outcomes[0].pct_localized,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "attempted": sum(o.attempted for o in outcomes),
        "failures": [f for o in outcomes for f in o.failures]
        + ["a pass gave different results"] * mismatched,
        "setups": {"each_raw_s": raw_setups, **_clock_record(setup_clock)},
        "passes": [_clock_record(c) for c in passes],
        "digests": outcomes[0].digests,
    }


def _clock_record(clock) -> dict:
    return {"scaled_s": clock.scaled_s, "raw_s": clock.raw_s, "references_s": clock.references}


def run_traced(workload, seed: int, world_seed: int, work: Path, spans_path: Path) -> dict:
    """Set-up traced once, then one untraced and one traced timed pass over the
    same inputs. Their difference is the tracing overhead."""
    import layers
    from spans import Tracer
    from workloads import Outcome

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        inputs = workload.setup(seed, world_seed, work)

    plain = Outcome()
    t0 = perf_counter()
    state = workload.run(inputs, plain)
    wall_untraced = perf_counter() - t0
    if workload.finish:
        workload.finish(inputs, plain, state)

    traced = Outcome()
    with tracer.installed(), tracer.span("bench.timed") as root:
        state = workload.run(inputs, traced)
    if workload.finish:
        workload.finish(inputs, traced, state)

    tracer.write_csv(spans_path)
    failures = plain.failures + traced.failures
    leftovers = tracer.leftovers()
    if leftovers:
        failures.append(f"tracing left wrappers behind: {leftovers}")
    if plain.result_key() != traced.result_key():
        failures.append("traced and untraced passes gave different results")
    metrics, problems = layers.per_layer_metrics(tracer.spans, root, traced, wall_untraced)
    failures += problems
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failures": failures,
        "pct_localized": {"untraced": plain.pct_localized, "traced": traced.pct_localized},
        "digests": {"untraced": plain.digests, "traced": traced.digests},
        "wrapped_attributes": tracer.wrapped_count,
        "spans_file": str(spans_path),
    }


def _undeclared(metrics: dict, trace: int) -> list[str]:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"] for name, entry in metrics.items()}
    if printed == expected:
        return []
    differ = sorted(set(printed.items()) ^ set(expected.items()))
    return [f"metrics differ from BENCHMARK.json: {differ}"]


def run_one(args) -> int:
    try:
        _import_from_checkout()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-world{args.world_seed}-seed{args.seed}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            spans_path = OUT_DIR / f"{stem}-spans.csv"
            result = run_traced(workload, args.seed, args.world_seed, work, spans_path)
        else:
            result = run_untraced(workload, args.seed, args.world_seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result.pop("failures") + _undeclared(result["metrics"], args.trace)
    summary = {
        "correct": not failures,
        "attempted": result.pop("attempted"),
        "failed": len(failures),
        "metrics": result.pop("metrics"),
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, args.world_seed),
        **summary,
        "failures": failures[:50],
        **result,
    }
    path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    print_metrics(summary["metrics"], args.workload)
    if args.compare:
        print_comparison(summary["metrics"], json.loads(Path(args.compare).read_text()))
    print(f"result written to {path}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so that each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--world-seed", str(args.world_seed),
        ]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within 900 s", file=sys.stderr)
            return 2
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            return 2
        merged["correct"] = merged["correct"] and child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for metric, entry in child["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        print_metrics(child["metrics"], name)
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def print_metrics(metrics: dict, workload: str) -> None:
    for name, entry in metrics.items():
        print(f"{workload:<13} {name:<40} {entry['value']:>14.6g} {entry['unit']}")


def print_comparison(metrics: dict, base_record: dict) -> None:
    """Each metric's ratio to the same metric in an earlier result file,
    with the base value it is a ratio of."""
    base = base_record.get("metrics", {})
    print(f"compared with {base_record.get('provenance', {}).get('git_sha')}:")
    for name, entry in metrics.items():
        if name not in base:
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}  (no base)")
            continue
        b = base[name]["value"]
        ratio = entry["value"] / b if b else math.nan
        print(
            f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}  "
            f"base {b:.6g}  ratio {ratio:.3f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the timed section until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=DEFAULT_SEED,
                        help="seed of the default world (>= 0)")
    parser.add_argument("--compare", default=None, help="earlier result file to compare with")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.world_seed < 0:
        parser.error("seeds must be >= 0")
    if args.workload == "all" and args.compare:
        parser.error("--compare takes the result file of a single workload")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
