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

import numpy as np
import pytest

from synthloc import embed, geometry, index, localize
from synthloc.worldgen import CameraPose, project_points

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


@pytest.fixture(scope="module")
def train_grid_inputs(workloads, tmp_path_factory):
    return workloads.setup_train_grid(SEED, WORLD_SEED, tmp_path_factory.mktemp("train_grid"))


def test_traced_targets_are_callables():
    for module_name, names in _load("spans").TARGETS.items():
        module = importlib.import_module(f"synthloc.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"synthloc.{module_name}.{name}"


def test_pnp_hooks_read_the_correspondences_and_the_inliers():
    """The tracer's hooks on `localize.pnp_ransac`, run around a real solve,
    read n from its arguments and the inlier count from its result, as
    `localize.pnp_corr_mean` and `localize.pnp_inlier_ratio` need: 20
    correspondences, the last 5 moved 50 px off their projections."""
    before, after = _load("spans").HOOKS["localize.pnp_ransac"]
    points = np.random.default_rng(0).uniform([-3, -2, 5], [3, 2, 15], (20, 3))
    pixels = project_points(points, CameraPose(np.array([1.0, 0, 0, 0]), np.zeros(3)))[0]
    pixels[15:] += 50.0
    args = (pixels, points, localize.RansacParams(seed=0))
    info = before(args, {})
    after(info, localize.pnp_ransac(*args))
    assert info == {"corr": 20, "inliers": 15}


def test_localize_sfm_runs_without_failures(workloads, tmp_path):
    inputs = workloads.setup_localize_sfm(SEED, WORLD_SEED, tmp_path)
    inputs["queries"] = inputs["queries"][:4]
    out = workloads.Outcome()
    workloads.run_localize_sfm(inputs, out)
    assert out.failures == []
    assert out.tries == 4 * len(workloads.SFM_KS)


def test_train_grid_inputs_fit_what_the_benchmark_reads(workloads, train_grid_inputs):
    """The set-up builds its inputs, and its scores offer what
    `bench/layers.py` reads of them: a length and (key, score) items."""
    inputs = train_grid_inputs
    scores = inputs["scores"]
    assert len(scores) > 0
    valid = [geometry.validate_pair(s, workloads.C_TAU) for _, s in scores.items()]
    assert 0 < sum(valid) <= len(scores)
    assert inputs["queries"] and inputs["store"].items()


def test_train_grid_store_trains_and_its_codebook_indexes(workloads, train_grid_inputs):
    """`embed.train` takes the set-up's `store`, what
    `variants.VariantStore.from_mapping` gives, as the benchmark passes it;
    and `index.build_index` and `index.retrieve` take what
    `index.train_codebook` returns, as `run_localize_sfm` passes it. A short
    multi_k run draws synthetic tuples, so the variants are read."""
    inputs = train_grid_inputs
    config = embed.TrainConfig(
        mode="multi_k", sampling="geometry_aware", c_tau=workloads.C_TAU, seed=workloads.TRAIN_SEED,
        **{**workloads.TRAIN_SIZES, "episodes": 1, "pairs_per_episode": 10},
    )
    world = inputs["world"]
    model, trace = embed.train(world, inputs["store"], inputs["scores"], config)
    assert model.projection.shape == (16, workloads.DESCRIPTOR_DIM)
    assert trace[0].synth_fraction > 0
    local = np.concatenate([v.descriptors() @ model.projection.T for v in world.map_views])
    codebook = index.train_codebook(local, workloads.CODEBOOK_SIZE, 2, SEED)
    db = index.build_index(world.map_views, model, codebook)
    ranked = index.retrieve(inputs["queries"][0], db, model, "asmk", workloads.SFM_TOP)
    assert len(ranked) == workloads.SFM_TOP


def test_cli_pipeline_runs_without_failures(workloads, tmp_path, monkeypatch):
    """worldgen, variants, train and evaluate through `synthloc.cli.main` as
    the benchmark runs them, with training cut to one short episode, and the
    outputs pass the benchmark's checks, over the default run's 320
    localization attempts."""
    sizes = {**workloads.TRAIN_SIZES, "episodes": 1, "pairs_per_episode": 10}
    monkeypatch.setattr(workloads, "TRAIN_SIZES", sizes)
    inputs = workloads.setup_cli_pipeline(SEED, WORLD_SEED, tmp_path)
    out = workloads.Outcome()
    root = workloads.run_cli_pipeline(inputs, out)
    workloads.finish_cli_pipeline(inputs, out, root)
    assert out.failures == []
    assert out.tries == 320
