import math
import os
import sys
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

from synthloc import localize, quats
from synthloc.errors import InsufficientCorrespondencesError, NoConsensusError
from synthloc.geometry import MatchParams, match_features, score_world_variants
from synthloc.variants import DomainShift, default_prompt_set, generate_all_variants
from synthloc.worldgen import (
    FOCAL,
    IMAGE_SIZE,
    PRINCIPAL_POINT,
    CameraPose,
    ViewImage,
    WorldConfig,
    generate_world,
)


def landmark_set(view: ViewImage) -> frozenset[int]:
    """The ids of the landmarks `view` sees."""
    return frozenset(view.lid[view.lid >= 0].tolist())


def identity_shift(name: str, d: int) -> DomainShift:
    """A shift that renames the condition and changes nothing else."""
    return DomainShift(
        name=name,
        descriptor_bias=np.zeros(d),
        bias_gain=0.0,
        descriptor_noise_sigma=0.0,
        dropout_rate=0.0,
        clutter_rate=0.0,
    )


def from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    """The unit quaternion of a rotation by `angle_rad` about `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle_rad
    return quats.canonical(np.concatenate(([np.cos(half)], np.sin(half) * axis)))


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


def make_view(rng, n_features, d, view_id=0, condition="original", n_clutter=0):
    """Free-standing view with random unit descriptors and distinct landmark ids."""
    pose = CameraPose(rotation=np.array([1.0, 0.0, 0.0, 0.0]), position=np.zeros(3))
    n = n_features + n_clutter
    kp = np.empty((n, 2))
    desc = np.empty((n, d))
    for i in range(n):
        x = rng.standard_normal(d)
        kp[i] = rng.uniform([0, 0], IMAGE_SIZE)
        desc[i] = x / np.linalg.norm(x)
    lid = np.where(np.arange(n) < n_features, np.arange(n), -1)
    return ViewImage(view_id, pose, kp, desc, lid, condition=condition)


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


# ---------------------------------------------------------------- pnp oracle
#
# localize.pnp_ransac draws each sample when its walk reaches it and solves it
# in Python floats. The reference below draws its samples the same way, and
# solves and scores them one at a time with numpy, as a plain RANSAC loop
# does; both must pick the same hypothesis and return the same bytes. Its
# P3P solve is written per sample with np.roots, a linear solve for the
# Newton steps and a Kabsch SVD for the pose. The refit is one Gauss-Newton
# step on the reprojection errors, its Jacobian built point by point. It
# starts from the solver's own `_p3p` pose of the winning sample, and the
# bearings take one norm per row as the solver's do: the two P3P solves
# agree to rounding, not to the byte, and the step would carry such a
# difference into the pose it returns.


def gauss_newton_oracle(R, center, points3d, norm_xy):
    """One Gauss-Newton step from the pose (R, center) on the normalized
    image errors of the points: each point's camera coordinates c and two
    rows of the Jacobian of (x/z, y/z) in the rotation w and translation t
    of c -> c + w x c + t, then one least-squares solve. The rotation turns
    by the normalized quaternion (1, w/2), and the center keeps the camera
    points where the step put them."""
    rows, errors = [], []
    Rl, (cx, cy, cz) = R.tolist(), center.tolist()
    for (X, Y, Z), (xo, yo) in zip(points3d.tolist(), norm_xy.tolist()):
        dx, dy, dz = X - cx, Y - cy, Z - cz
        x, y, z = (r0 * dx + r1 * dy + r2 * dz for r0, r1, r2 in Rl)
        u, v = x / z, y / z
        rows.append([-u * v, 1 + u * u, -v, 1 / z, 0.0, -u / z])
        rows.append([-1 - v * v, u * v, u, 0.0, 1 / z, -v / z])
        errors += [xo - u, yo - v]
    step = np.linalg.lstsq(np.array(rows), np.array(errors), rcond=None)[0]
    w, t = step[:3], step[3:]
    R = quats.to_matrix(quats.canonical(np.array([1.0, w[0] / 2, w[1] / 2, w[2] / 2]))) @ R
    return R, center - R.T @ t


def residuals_oracle(R, center, points3d, pixels):
    cam = (points3d - center) @ R.T
    z = cam[:, 2]
    res = np.full(points3d.shape[0], np.inf)
    front = z > 0.1
    if np.any(front):
        u = FOCAL * cam[front, 0] / z[front] + PRINCIPAL_POINT[0]
        v = FOCAL * cam[front, 1] / z[front] + PRINCIPAL_POINT[1]
        res[front] = np.hypot(u - pixels[front, 0], v - pixels[front, 1])
    return res


def p3p_oracle(X, f):
    """The (root, R, center) solutions of one P3P sample, three world points
    X (3, 3) seen along unit bearings f (3, 3), ordered by root. Grunert's
    quartic in v = d3 / d1 (Haralick et al., IJCV 1994), solved by np.roots;
    a real positive root fixes d1 and d3 by side b, and each positive depth
    d2 at side c from point 1 that lies at side a from point 3 (to the
    solver's `_ON_SIDE`) is a solution. Two Newton steps on the three
    squared sides, then the pose that maps X onto the camera points (Kabsch's
    SVD)."""
    a2, b2, c2 = (np.sum((X[i] - X[j]) ** 2) for i, j in ((1, 2), (0, 2), (0, 1)))
    ca, cb, cg = (float(f[i] @ f[j]) for i, j in ((1, 2), (0, 2), (0, 1)))
    k1, k2 = (a2 - c2) / b2, (a2 + c2) / b2
    quartic = [
        (k1 - 1) ** 2 - 4 * c2 / b2 * ca**2,
        4 * (k1 * (1 - k1) * cb - (1 - k2) * ca * cg + 2 * c2 / b2 * ca**2 * cb),
        2 * (k1**2 - 1 + 2 * k1**2 * cb**2 + 2 * (b2 - c2) / b2 * ca**2
             - 4 * k2 * ca * cb * cg + 2 * (b2 - a2) / b2 * cg**2),
        4 * (-k1 * (1 + k1) * cb + 2 * a2 / b2 * cg**2 * cb - (1 - k2) * ca * cg),
        (1 + k1) ** 2 - 4 * a2 / b2 * cg**2,
    ]
    roots = np.roots(quartic)
    solutions = []
    for v in sorted(r.real for r in roots if r.imag == 0 and r.real > 0):
        d1 = np.sqrt(b2 / (1 + v * v - 2 * v * cb))
        d3 = v * d1
        half = np.sqrt(max(c2 - d1 * d1 * (1 - cg * cg), 0.0))
        for d2 in (d1 * cg + half, d1 * cg - half):
            off = d2 * d2 + d3 * d3 - 2 * d2 * d3 * ca - a2
            if not (d2 > 0 and abs(off) <= localize._ON_SIDE * (d2 * d2 + d3 * d3)):
                continue
            d = np.array([d1, d2, d3])
            for _ in range(2):
                cam = d[:, None] * f
                F = [np.sum((cam[i] - cam[j]) ** 2) - s for (i, j), s in zip(((1, 2), (0, 2), (0, 1)), (a2, b2, c2))]
                J = 2 * np.array([
                    [0.0, d[1] - d[2] * ca, d[2] - d[1] * ca],
                    [d[0] - d[2] * cb, 0.0, d[2] - d[0] * cb],
                    [d[0] - d[1] * cg, d[1] - d[0] * cg, 0.0],
                ])
                d = d - np.linalg.solve(J, F)
            cam = d[:, None] * f
            H = (X - X.mean(axis=0)).T @ (cam - cam.mean(axis=0))
            U, _, Vt = np.linalg.svd(H)
            R = Vt.T @ np.diag([1.0, 1.0, np.linalg.det(Vt.T @ U.T)]) @ U.T
            solutions.append((v, R, X.mean(axis=0) - R.T @ cam.mean(axis=0)))
    return solutions


def best_solution(solutions, points, pixels, inlier_px):
    """The inlier mask, count and (R, center) of the first of the (root, R,
    center) solutions with the most inliers, or an empty mask, 0 and None
    if none has an inlier."""
    best = np.zeros(len(points), dtype=bool), 0, None
    for _v, R, center in solutions:
        with np.errstate(invalid="ignore"):
            mask = residuals_oracle(R, center, points, pixels) <= inlier_px
        if mask.sum() > best[1]:
            best = mask, int(mask.sum()), (R, center)
    return best


def sample_oracle(sample, points, rays, pixels, inlier_px):
    """The inlier mask and count of one sample: its first P3P solution with
    the most inliers, or an empty mask and 0 if it has none."""
    with np.errstate(all="ignore"):
        try:
            solutions = p3p_oracle(points[sample], rays[sample])
        except np.linalg.LinAlgError:  # np.roots on a non-finite quartic
            solutions = []
    mask, count, _pose = best_solution(solutions, points, pixels, inlier_px)
    return mask, count


def bearings(norm_xy):
    """The unit rays through the normalized image points, one norm per row."""
    rays = np.hstack([norm_xy, np.ones((len(norm_xy), 1))])
    return np.array([ray / np.linalg.norm(ray) for ray in rays]).reshape(rays.shape)


def pnp_oracle(pixels, points, params):
    n = len(pixels)
    if n < 6:
        raise InsufficientCorrespondencesError("insufficient correspondences")
    norm_xy = (pixels - PRINCIPAL_POINT) / FOCAL
    rays = bearings(norm_xy)
    least = max(params.min_inliers, 6)
    log_miss = np.log(max(1.0 - params.confidence, 1e-12))

    def bound(p):
        denom = np.log(max(1.0 - p, 1e-12))
        if denom == 0.0:
            return params.iterations
        return max(1, min(params.iterations, int(np.ceil(log_miss / denom))))

    start = bound(math.comb(least, 3) / math.comb(n, 3))
    rng = np.random.default_rng(params.seed)
    best_count, best_mask = 0, None
    needed = start
    it = 0
    while it < needed:
        it += 1
        sample = rng.choice(n, size=3, replace=False)
        mask, count = sample_oracle(sample, points, rays, pixels, params.inlier_px)
        if count > best_count:
            best_count, best_mask, best_sample = count, mask, sample
            needed = min(start, bound((count / n) ** 3))
    if best_mask is None or best_count < least:
        raise NoConsensusError("no consensus")
    roots, Rs, Cs = localize._p3p(points[best_sample], rays[best_sample])
    solutions = sorted(zip(roots, Rs, Cs), key=lambda s: s[0])
    mask, _count, (R, center) = best_solution(solutions, points, pixels, params.inlier_px)
    assert np.array_equal(mask, best_mask)
    R, center = gauss_newton_oracle(R, center, points[best_mask], norm_xy[best_mask])
    pose = CameraPose(rotation=quats.from_matrix(R), position=center)
    res = residuals_oracle(pose.matrix(), pose.position, points, pixels)
    final = np.nonzero(res <= params.inlier_px)[0]
    if final.size < least:
        raise NoConsensusError("no consensus")
    return pose, final


def outcome(solver, pixels, points, params):
    """The error type a solve raises, or its pose's rotation and position
    bytes and its inlier indices as a list."""
    try:
        pose, inliers = solver(pixels, points, params)
    except (InsufficientCorrespondencesError, NoConsensusError) as exc:
        return type(exc)
    return pose.rotation.tobytes(), pose.position.tobytes(), inliers.tolist()


def count_hypotheses(monkeypatch):
    """Spy on `_hypothesis`: the returned list gets a 1 for each sample
    pnp_ransac solves."""
    solved = []
    solve = localize._hypothesis

    def spy(*args):
        solved.append(1)
        return solve(*args)

    monkeypatch.setattr(localize, "_hypothesis", spy)
    return solved


def count_oracle_iterations(monkeypatch):
    """Spy on `sample_oracle`: the returned list gets a 1 for each sample
    pnp_oracle solves, one per iteration of its loop."""
    solved = []
    solve = sample_oracle

    def spy(*args):
        solved.append(1)
        return solve(*args)

    monkeypatch.setattr(sys.modules[__name__], "sample_oracle", spy)
    return solved
