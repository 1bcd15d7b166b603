import numpy as np
import pytest

ACCEPTANCE_RESULTS: dict[str, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        ACCEPTANCE_RESULTS[item.name] = rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ACCEPTANCE_RESULTS[name] else "FAIL"
        terminalreporter.write_line(f"  {name}: {status}")

from synthloc.geometry import MatchParams, match_features, score_world_variants
from synthloc.variants import VariantStore, default_prompt_set, generate_all_variants
from synthloc.worldgen import (
    CameraIntrinsics,
    CameraPose,
    ViewImage,
    WorldConfig,
    generate_world,
)

SMALL_WORLD = WorldConfig(
    num_landmarks=250,
    descriptor_dim=16,
    num_map_views=16,
    num_query_views=8,
    street_length=80.0,
)


@pytest.fixture(scope="session")
def small_world():
    return generate_world(SMALL_WORLD, seed=3)


@pytest.fixture(scope="session")
def default_world():
    return generate_world(WorldConfig(), seed=7)


@pytest.fixture(scope="session")
def small_prompts():
    return default_prompt_set(SMALL_WORLD.descriptor_dim, seed=0)


@pytest.fixture(scope="session")
def small_variants(small_world, small_prompts):
    return generate_all_variants(small_world, small_prompts, seed=0)


@pytest.fixture(scope="session")
def small_variant_store(small_variants):
    return VariantStore.from_mapping(small_variants)


@pytest.fixture(scope="session")
def small_scores(small_world, small_variants):
    return score_world_variants(small_world, small_variants, MatchParams())


def make_view(rng, n_features, d, view_id=0, condition="original", n_clutter=0, image_size=(640, 480)):
    """Free-standing view with random unit descriptors and distinct landmark ids."""
    intr = CameraIntrinsics(
        focal=400.0,
        principal_point=np.array([image_size[0] / 2, image_size[1] / 2]),
        image_size=image_size,
    )
    pose = CameraPose(rotation=np.array([1.0, 0.0, 0.0, 0.0]), position=np.zeros(3))
    n = n_features + n_clutter
    kp = np.empty((n, 2))
    desc = np.empty((n, d))
    for i in range(n):
        x = rng.standard_normal(d)
        kp[i] = rng.uniform([0, 0], image_size)
        desc[i] = x / np.linalg.norm(x)
    lid = np.where(np.arange(n) < n_features, np.arange(n), -1)
    return ViewImage(view_id, pose, intr, kp, desc, lid, condition=condition)


def perturbed(rng, desc, sigma):
    """The rows of `desc` plus N(0, sigma^2) noise, each renormalised to unit
    norm; drawn and rounded one row at a time."""
    out = np.empty_like(desc)
    for i, row in enumerate(desc):
        x = row + sigma * rng.standard_normal(desc.shape[1])
        out[i] = x / np.linalg.norm(x)
    return out


def match_pairs(a, b, params):
    """`match_features`' index arrays as a list of (index in a, index in b)."""
    ia, ib = match_features(a, b, params)
    return list(zip(ia.tolist(), ib.tolist()))
