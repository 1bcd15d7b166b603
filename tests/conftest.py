import os
import warnings

import numpy as np
import pytest

ACCEPTANCE_RESULTS: dict[str, bool] = {}

# To report a failing hypothesis test, hypothesis's pytest plugin imports its
# patch writer, and the libcst that the writer imports emits a
# DeprecationWarning. Under `filterwarnings = error` that warning would end
# the session with an INTERNALERROR in place of the falsifying example, so
# the writer is imported here once, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
from synthloc.variants import default_prompt_set, generate_all_variants
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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails any test that leaves a child process unreaped. Library calls and
    fixtures fork (`fanout._fan_out`), and every call must wait for each
    child it starts before it returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped ({'running' if pid == 0 else f'pid {pid}'})")


@pytest.fixture
def forks(monkeypatch):
    """Counts the os.fork calls made in this process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def set_cpus(monkeypatch, n: int) -> None:
    """Makes the affinity mask, and so `_fan_out`, see `n` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
