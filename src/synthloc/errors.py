"""Exception types shared across the pipeline stages, and the value checks
that config dataclasses use before raising the ValueError which the config
loader reports as a `ConfigError`."""

import math

import numpy as np


def is_integer(x) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_finite_number(x) -> bool:
    """An integer (see `is_integer`) or a finite float."""
    return is_integer(x) or (isinstance(x, (float, np.floating)) and math.isfinite(x))


def require_integer(name: str, value, low: int) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= low."""
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


def require_distinct_integers(name: str, value, low: int) -> None:
    """Raise ValueError naming `name` unless `value` is a non-empty list of
    distinct integers >= low."""
    if not (
        isinstance(value, list)
        and value
        and all(is_integer(x) and x >= low for x in value)
        and len(set(value)) == len(value)
    ):
        raise ValueError(
            f"{name} must be a non-empty list of distinct integers >= {low}, not {value!r}"
        )


def require_number(name: str, value, low: float | None = None, strict: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite number that
    is >= low (> low if `strict`), or any finite number if low is None."""
    if is_finite_number(value) and (low is None or value > low or (value == low and not strict)):
        return
    bound = "" if low is None else f" {'>' if strict else '>='} {low}"
    raise ValueError(f"{name} must be a finite number{bound}, not {value!r}")


class SynthlocError(Exception):
    """Base class for all pipeline errors. The CLI exits 2 on a ConfigError
    and 3 on any other SynthlocError; a broken caller contract inside the
    library is a ValueError."""


class ConfigError(SynthlocError):
    """Invalid or unparseable configuration, or a world config that cannot
    support pose estimation (CLI exit code 2)."""


class DataError(SynthlocError):
    """Missing, malformed or unusable input data (CLI exit code 3)."""


class NoVisibleLandmarksError(SynthlocError):
    """A camera pose sees no landmark at all; `generate_world` redraws such a
    query pose."""


class InsufficientNegativesError(SynthlocError):
    """The mining pool has fewer eligible views than negatives requested;
    `train` skips such a pair."""


class InsufficientCorrespondencesError(SynthlocError):
    """Pose estimation needs at least 6 correspondences; a recorded
    localization outcome."""


class NoConsensusError(SynthlocError):
    """RANSAC failed to find a consensus set of the required size; a recorded
    localization outcome."""
