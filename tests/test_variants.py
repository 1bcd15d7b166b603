import dataclasses

import numpy as np
import pytest

from synthloc.geometry import MatchParams, consistency_score
from synthloc.variants import (
    P11_NAMES,
    apply_variant,
    default_prompt_set,
    generate_all_variants,
    identity_shift,
    shift_queries,
)
from conftest import make_view, perturbed

P11_EXPECTED = (
    "at dawn",
    "at dusk",
    "at noon",
    "at sunset",
    "in winter",
    "in summer",
    "with rain",
    "with snow",
    "with sun",
    "at night with rain",
    "at night",
)


@pytest.mark.parametrize("seed", [0, 1, 17, 94321])
def test_prompt_set_is_p11(seed):
    ps = default_prompt_set(32, seed=seed)
    assert tuple(ps.names()) == P11_EXPECTED
    assert len(ps.shifts) == 11
    assert P11_NAMES == P11_EXPECTED


def test_night_shifts_most_severe():
    ps = default_prompt_set(32, seed=0)
    gains = {s.name: s.bias_gain for s in ps.shifts}
    dropouts = {s.name: s.dropout_rate for s in ps.shifts}
    nights = {"at night", "at night with rain"}
    others = set(gains) - nights
    assert min(gains[n] for n in nights) > max(gains[o] for o in others)
    assert min(dropouts[n] for n in nights) > max(dropouts[o] for o in others)


def test_biases_unit_and_non_collinear():
    ps = default_prompt_set(32, seed=0)
    biases = np.array([s.descriptor_bias for s in ps.shifts])
    assert np.allclose(np.linalg.norm(biases, axis=1), 1.0, atol=1e-12)
    cos = biases @ biases.T
    off = cos[~np.eye(11, dtype=bool)]
    assert np.max(np.abs(off)) < 0.99


def test_identity_shift_preserves_everything():
    rng = np.random.default_rng(0)
    view = make_view(rng, 20, 16, n_clutter=3)
    out = apply_variant(view, identity_shift("renamed", 16), seed=4)
    assert out.condition == "renamed"
    assert np.array_equal(out.kp, view.kp)
    assert np.allclose(out.desc, view.desc, atol=1e-12)
    assert np.array_equal(out.lid, view.lid)


def test_full_dropout_leaves_only_clutter():
    rng = np.random.default_rng(1)
    view = make_view(rng, 30, 16)
    shift = identity_shift("dead", 16)
    shift.dropout_rate = 1.0
    shift.clutter_rate = 0.2
    out = apply_variant(view, shift, seed=9)
    assert np.all(out.lid == -1)
    assert len(out.lid) == int(np.ceil(0.2 * 30))


def test_variant_of_variant_rejected():
    rng = np.random.default_rng(2)
    view = make_view(rng, 10, 16, condition="at night")
    with pytest.raises(ValueError, match="already synthetic"):
        apply_variant(view, identity_shift("x", 16), seed=0)


def binom_interval(n, p, conf=0.99):
    """Exact central binomial interval via the CDF (independent oracle)."""
    import math

    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cdf = np.cumsum(pmf)
    tail = (1.0 - conf) / 2.0
    lo = int(np.searchsorted(cdf, tail))
    hi = int(np.searchsorted(cdf, 1.0 - tail))
    return lo, hi


def test_dropout_binomial_interval():
    """Surviving count across 500 seeds stays within the Binomial(100, 0.7)
    99% envelope (oracle interval from the exact binomial CDF)."""
    rng = np.random.default_rng(3)
    view = make_view(rng, 100, 8)
    shift = identity_shift("drop", 8)
    shift.dropout_rate = 0.3
    lo, hi = binom_interval(100, 0.7)
    survived = []
    for seed in range(500):
        out = apply_variant(view, shift, seed=seed)
        survived.append(len(out.lid))
    survived = np.array(survived)
    inside = np.mean((survived >= lo) & (survived <= hi))
    assert inside >= 0.97
    assert abs(survived.mean() - 70.0) < 2.0


def test_geometry_preservation_bitwise():
    rng = np.random.default_rng(4)
    view = make_view(rng, 40, 16)
    ps = default_prompt_set(16, seed=0)
    out = apply_variant(view, ps.by_name("at night"), seed=11)
    originals = dict(zip(view.lid.tolist(), view.kp))
    for lid, kp in zip(out.lid.tolist(), out.kp):
        if lid >= 0:
            assert kp.tobytes() == originals[lid].tobytes()


def test_label_preservation():
    rng = np.random.default_rng(5)
    view = make_view(rng, 25, 16, n_clutter=5)
    ps = default_prompt_set(16, seed=0)
    out = apply_variant(view, ps.by_name("with rain"), seed=12)
    original_ids = view.visible_landmark_set()
    assert set(out.lid[out.lid >= 0].tolist()) <= original_ids


def test_generate_all_variants_counts(small_world, small_prompts, small_variants):
    assert len(small_variants) == len(small_world.map_views)
    for vid, row in small_variants.items():
        assert len(row) == len(small_prompts.shifts)
        assert [v.condition for v in row] == small_prompts.names()


def test_generate_all_variants_deterministic(small_world, small_prompts, small_variants):
    again = generate_all_variants(small_world, small_prompts, seed=0)
    for vid in small_variants:
        for a, b in zip(small_variants[vid], again[vid]):
            assert np.array_equal(a.kp, b.kp)
            assert np.array_equal(a.descriptors(), b.descriptors())


def test_landmark_survival_fraction(small_world, small_prompts, small_variants):
    """Mean per-prompt landmark survival approximately equals 1 - dropout."""
    for j, shift in enumerate(small_prompts.shifts):
        fracs = []
        for view in small_world.map_views:
            n_orig = int(np.sum(view.lid >= 0))
            variant = small_variants[view.id][j]
            n_kept = int(np.sum(variant.lid >= 0))
            fracs.append(n_kept / n_orig)
        assert abs(np.mean(fracs) - (1.0 - shift.dropout_rate)) < 0.05


def test_severity_monotonicity_in_dropout():
    """Expected consistency score is non-increasing in dropout rate."""
    rng = np.random.default_rng(6)
    ps = default_prompt_set(16, seed=0)
    lo = identity_shift("lo", 16)
    lo.dropout_rate = 0.1
    hi = identity_shift("hi", 16)
    hi.dropout_rate = 0.5
    params = MatchParams()
    scores = {"lo": [], "hi": []}
    for trial in range(100):
        q = make_view(rng, 40, 16, view_id=0)
        # positive = same landmarks, slightly noisy descriptors
        p = make_view(np.random.default_rng(1000 + trial), 40, 16, view_id=1)
        p = dataclasses.replace(p, desc=perturbed(rng, q.desc, 0.01))
        for name, shift in (("lo", lo), ("hi", hi)):
            variant = apply_variant(q, shift, seed=trial)
            scores[name].append(consistency_score(q, p, variant, params).value)
    assert np.mean(scores["hi"]) <= np.mean(scores["lo"])


def test_shift_queries(small_world, small_prompts):
    out = shift_queries(small_world, small_prompts, ["at night", "with rain"], seed=0)
    n = len(small_world.query_views)
    assert len(out) == 3 * n
    conditions = [v.condition for v in out]
    assert conditions.count("original") == n
    assert conditions.count("at night") == n
    assert conditions.count("with rain") == n
    ids = [v.id for v in out]
    assert len(set(ids)) == len(ids)
    # shifted copies keep the clean query's pose (ground truth unchanged)
    shifted = [v for v in out if v.condition == "at night"]
    for sv, qv in zip(shifted, small_world.query_views):
        assert np.array_equal(sv.pose.position, qv.pose.position)
