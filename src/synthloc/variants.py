"""Simulated domain-shift generator: named prompts become descriptor-space
translations plus noise, feature dropout and clutter, leaving keypoint
geometry untouched (the property the downstream validation relies on)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .worldgen import ViewImage, World, derive_seed, fill_clutter, unit_rows

# The 11 weather / season / time-of-day prompts, with severity parameters
# per prompt: (bias_gain, descriptor_noise_sigma, dropout_rate, clutter_rate).
# The two night shifts are graded most severe (largest bias gain and dropout);
# "at sunset" gets heavy descriptor noise so that its variants frequently fail
# geometric validation, which gives filtering real work to do.
P11_SEVERITY: dict[str, tuple[float, float, float, float]] = {
    "at dawn": (0.60, 0.03, 0.04, 0.04),
    "at dusk": (0.65, 0.03, 0.05, 0.04),
    "at noon": (0.30, 0.02, 0.02, 0.03),
    "at sunset": (0.80, 0.60, 0.08, 0.10),
    "in winter": (0.70, 0.04, 0.06, 0.05),
    "in summer": (0.40, 0.03, 0.03, 0.04),
    "with rain": (0.60, 0.04, 0.06, 0.06),
    "with snow": (0.75, 0.04, 0.07, 0.06),
    "with sun": (0.50, 0.03, 0.03, 0.04),
    "at night with rain": (1.30, 0.05, 0.12, 0.06),
    "at night": (1.20, 0.04, 0.10, 0.05),
}

P11_NAMES = tuple(P11_SEVERITY)

# The seed of the 11 prompts' bias directions: `variants` edits the map with,
# and `evaluate` shifts the queries by, the same prompt set.
PROMPT_SEED = 0


@dataclass
class DomainShift:
    name: str
    descriptor_bias: np.ndarray  # (d,) unit direction
    bias_gain: float
    descriptor_noise_sigma: float
    dropout_rate: float
    clutter_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must be in [0, 1]")
        if self.clutter_rate < 0.0:
            raise ValueError("clutter_rate must be >= 0")
        self.descriptor_bias = np.asarray(self.descriptor_bias, dtype=float)


@dataclass
class PromptSet:
    shifts: list[DomainShift] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [s.name for s in self.shifts]
        if len(set(names)) != len(names):
            raise ValueError("prompt names must be distinct")

    def names(self) -> list[str]:
        return [s.name for s in self.shifts]

    def by_name(self, name: str) -> DomainShift:
        for s in self.shifts:
            if s.name == name:
                return s
        raise KeyError(name)


def default_prompt_set(d: int, seed: int) -> PromptSet:
    """The 11 named shifts with pseudo-random unit bias directions. The
    biases are the rows of one (11, d) block of normals, filled in the order
    that 11 draws of d normals take them."""
    rng = np.random.default_rng(derive_seed(seed, 11))
    biases = unit_rows(rng.standard_normal((len(P11_NAMES), d)))
    # a severity tuple holds DomainShift's fields after descriptor_bias, in order
    return PromptSet(
        [DomainShift(name, bias, *P11_SEVERITY[name]) for name, bias in zip(P11_NAMES, biases)]
    )


def apply_variant(view: ViewImage, shift: DomainShift, seed: int) -> ViewImage:
    """Produce the synthetic variant of `view` under `shift`.

    Features survive independently with probability 1 - dropout_rate;
    surviving descriptors are translated along the shift's bias direction,
    perturbed, and renormalized. Keypoints and landmark ids are preserved
    bit-for-bit.
    """
    if view.condition != "original":
        raise ValueError("already synthetic")
    rng = np.random.default_rng(seed)
    n = view.lid.shape[0]
    keep = np.flatnonzero(rng.random(n) >= shift.dropout_rate)
    m = keep.size
    n_out = m + math.ceil(shift.clutter_rate * n)

    d = view.desc.shape[1]
    # one block holds every kept feature's d descriptor normals in the order
    # a per-feature loop would take them
    noise = rng.standard_normal((m, d))
    kp = np.empty((n_out, 2))
    desc = np.empty((n_out, d))
    lid = np.full(n_out, -1)
    kp[:m] = view.kp[keep]
    x = view.desc[keep] + shift.bias_gain * shift.descriptor_bias + shift.descriptor_noise_sigma * noise
    desc[:m] = unit_rows(x)
    lid[:m] = view.lid[keep]
    fill_clutter(rng, kp, desc, m)
    return ViewImage(view.id, view.pose, kp, desc, lid, condition=shift.name)


class VariantStore:
    """Kept only for the benchmark's `bench/workloads.py:118`, which calls
    `from_mapping`. synthloc holds the variants in one form, the
    `generate_all_variants` mapping."""

    @staticmethod
    def from_mapping(mapping: dict[int, list[ViewImage]]) -> dict[int, list[ViewImage]]:
        """`mapping` itself."""
        return mapping


def generate_all_variants(world: World, prompts: PromptSet, seed: int) -> dict[int, list[ViewImage]]:
    """One variant per (map view, prompt); deterministic per-view RNG streams."""
    out: dict[int, list[ViewImage]] = {}
    for view in world.map_views:
        row = []
        for j, shift in enumerate(prompts.shifts):
            row.append(apply_variant(view, shift, derive_seed(seed, view.id, j)))
        out[view.id] = row
    return out


def shift_queries(world: World, prompts: PromptSet, conditions: list[str], seed: int) -> list[ViewImage]:
    """Clean query views plus, per requested condition, a shifted copy of each
    query under that prompt. Shifted copies get fresh view ids."""
    out = list(world.query_views)
    next_id = max(v.id for v in list(world.map_views) + list(world.query_views)) + 1
    for cond in conditions:
        shift = prompts.by_name(cond)
        tag = 5000 + prompts.names().index(cond)
        for q in world.query_views:
            variant = apply_variant(q, shift, derive_seed(seed, q.id, tag))
            out.append(replace(variant, id=next_id))
            next_id += 1
    return out
