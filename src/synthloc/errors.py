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


def require_number(name: str, value, low: float | None = None, strict: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite number that
    is >= low (> low if `strict`), or any finite number if low is None."""
    if is_finite_number(value) and (low is None or value > low or (value == low and not strict)):
        return
    bound = "" if low is None else f" {'>' if strict else '>='} {low}"
    raise ValueError(f"{name} must be a finite number{bound}, not {value!r}")


class SynthlocError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(SynthlocError):
    """Invalid or unparseable configuration (CLI exit code 2)."""


class DataError(SynthlocError):
    """Missing or malformed input data (CLI exit code 3)."""


class DegenerateWorldError(SynthlocError):
    """World generation produced (or would produce) views with too few landmarks."""


class NoVisibleLandmarksError(SynthlocError):
    """A camera pose sees no landmark at all."""


class AlreadySyntheticError(SynthlocError):
    """A variant was requested of a view that is itself synthetic."""


class InsufficientNegativesError(SynthlocError):
    """The mining pool has fewer eligible views than negatives requested."""


class EmptyTupleSetError(SynthlocError):
    """A multi-pair loss was evaluated on an empty tuple set."""


class MismatchedTupleFamilyError(SynthlocError):
    """Synthetic tuples do not share the original tuple's positive."""


class DivergedError(SynthlocError):
    """Training loss became non-finite."""


class TooFewVectorsError(SynthlocError):
    """k-means codebook training got fewer vectors than clusters."""


class CodebookMismatchError(SynthlocError):
    """Signatures being scored come from incompatible codebooks."""


class InsufficientCorrespondencesError(SynthlocError):
    """Pose estimation needs at least 6 correspondences."""


class NoConsensusError(SynthlocError):
    """RANSAC failed to find a consensus set of the required size."""


class EmptyRankingError(SynthlocError):
    """Pose approximation received an empty ranked list."""
