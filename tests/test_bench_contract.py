"""The synthloc API that the benchmark under `bench/` calls.

The benchmark's files change only in a change to the benchmark itself, so a
rename or a new signature in synthloc would first show as failed operations
in a benchmark run. These checks load `bench/spans.py` and
`bench/workloads.py` from their files, without editing them, and fail here
instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from synthloc import geometry

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = WORLD_SEED = 7  # the benchmark's default workload and world seeds


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_targets_are_callables():
    for module_name, names in _load("spans").TARGETS.items():
        module = importlib.import_module(f"synthloc.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"synthloc.{module_name}.{name}"


def test_localize_sfm_runs_without_failures(workloads, tmp_path):
    inputs = workloads.setup_localize_sfm(SEED, WORLD_SEED, tmp_path)
    inputs["queries"] = inputs["queries"][:4]
    out = workloads.Outcome()
    workloads.run_localize_sfm(inputs, out)
    assert out.failures == []
    assert out.tries == 4 * len(workloads.SFM_KS)


def test_train_grid_inputs_fit_what_the_benchmark_reads(workloads, tmp_path):
    """The set-up builds its inputs, and its scores offer what
    `bench/layers.py` reads of them: a length and (key, score) items."""
    inputs = workloads.setup_train_grid(SEED, WORLD_SEED, tmp_path)
    scores = inputs["scores"]
    assert len(scores) > 0
    valid = [geometry.validate_pair(s, workloads.C_TAU) for _, s in scores.items()]
    assert 0 < sum(valid) <= len(scores)
    assert inputs["queries"] and inputs["store"].items()
