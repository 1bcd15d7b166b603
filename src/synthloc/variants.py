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


@dataclass
class DomainShift:
    name: str
    descriptor_bias: np.ndarray  # (d,) unit direction
    bias_gain: float
    descriptor_noise_sigma: float
    dropout_rate: float
    clutter_rate: float
    keypoint_corruption_sigma: float = 0.0  # px; nonzero only for failure injection

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


def default_prompt_set(d: int, seed: int) -> PromptSet:
    """The 11 named shifts with pseudo-random unit bias directions."""
    rng = np.random.default_rng(derive_seed(seed, 11))
    shifts = []
    for name in P11_NAMES:
        gain, noise, dropout, clutter = P11_SEVERITY[name]
        bias = rng.standard_normal(d)
        bias = bias / np.linalg.norm(bias)
        shifts.append(
            DomainShift(
                name=name,
                descriptor_bias=bias,
                bias_gain=gain,
                descriptor_noise_sigma=noise,
                dropout_rate=dropout,
                clutter_rate=clutter,
            )
        )
    return PromptSet(shifts=shifts)


def apply_variant(view: ViewImage, shift: DomainShift, seed: int) -> ViewImage:
    """Produce the synthetic variant of `view` under `shift`.

    Features survive independently with probability 1 - dropout_rate;
    surviving descriptors are translated along the shift's bias direction,
    perturbed, and renormalized. Keypoints and landmark ids are preserved
    bit-for-bit unless keypoint_corruption_sigma > 0.
    """
    if view.condition != "original":
        raise ValueError("already synthetic")
    rng = np.random.default_rng(seed)
    n = view.lid.shape[0]
    keep = np.flatnonzero(rng.random(n) >= shift.dropout_rate)
    m = keep.size
    n_out = m + math.ceil(shift.clutter_rate * n)

    d = view.desc.shape[1]
    # one block holds every kept feature's draws in the order a per-feature
    # loop would take them: d descriptor normals, then 2 keypoint normals
    corrupt = shift.keypoint_corruption_sigma > 0.0
    noise = rng.standard_normal((m, d + 2 if corrupt else d))
    kp = np.empty((n_out, 2))
    desc = np.empty((n_out, d))
    lid = np.full(n_out, -1)
    kp[:m] = view.kp[keep]
    if corrupt:
        kp[:m] += shift.keypoint_corruption_sigma * noise[:, d:]
    x = (
        view.desc[keep]
        + shift.bias_gain * shift.descriptor_bias
        + shift.descriptor_noise_sigma * noise[:, :d]
    )
    desc[:m] = unit_rows(x)
    lid[:m] = view.lid[keep]
    fill_clutter(rng, kp, desc, m, view.intrinsics.image_size)
    return ViewImage(view.id, view.pose, view.intrinsics, kp, desc, lid, condition=shift.name)


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
