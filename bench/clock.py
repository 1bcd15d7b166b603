"""Wall time scaled to a reference speed.

On a shared machine the same work can take up to 1.7 times as long from one
minute to the next, because the processor's speed changes with what its
neighbours run. `Clock` therefore times a section in segments of INTERVAL_S,
runs a fixed reference loop between segments, and scales every segment by
REFERENCE_S over the reference's time around it (see `Clock.scaled_s`). The
reference loop is benchmark code, so a change to synthloc cannot change it.
The raw wall time is kept as well.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# What `reference()` takes on the machine the bounds were set on (2 vCPUs of
# an Intel Xeon, Python 3.11, numpy 2.4) in its usual state; a scaled time is
# in seconds at that speed.
REFERENCE_S = 0.013
# The reference runs once per interval, which adds about 5% to a run's
# duration. Its own time is never counted.
INTERVAL_S = 0.25
# References on each side of a segment that scale it.
WINDOW = 4

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((12, 12))
_ROWS = _rng.standard_normal((80, 32))
_BLOCK = _rng.standard_normal((256, 1024))  # 2 MB, larger than a core's L2 cache


def reference() -> float:
    """Seconds taken by a fixed single-threaded mix like synthloc's own work:
    interpreter loops over dicts, small LAPACK and numpy calls, and one pass
    over an array that does not fit in the L2 cache."""
    t0 = perf_counter()
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    for i in range(250):
        acc += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
        acc += float(np.min(np.linalg.norm(_ROWS - _ROWS[i % 80], axis=1)))
        for j in range(40):
            table[(i, j)] = j * 0.5
    acc += float(np.sqrt(_BLOCK * _BLOCK + 1.0).sum())
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop went non-finite")
    return perf_counter() - t0


class Clock:
    """Times one section; use as a context manager. While it runs, a real-time
    interval timer interrupts the section every INTERVAL_S to sample the
    reference, so long calls into synthloc are tracked too. The benchmark
    starts no thread for this: the signal handler runs in the main thread."""

    def __init__(self) -> None:
        self.segments: list[float] = []
        self.references: list[float] = []
        self._start = 0.0
        self._previous = None
        self._running = False

    def __enter__(self) -> "Clock":
        self.references.append(reference())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        if not self._running:  # delivered after __exit__ disarmed the timer
            return
        self.segments.append(perf_counter() - self._start)
        self.references.append(reference())
        self._start = perf_counter()
        # One-shot timer, armed again only after the reference: the handler
        # can never interrupt itself.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.segments.append(perf_counter() - self._start)
        signal.signal(signal.SIGALRM, self._previous)
        self.references.append(reference())

    @property
    def raw_s(self) -> float:
        return sum(self.segments)

    def elapsed_raw_s(self) -> float:
        """Raw time so far inside the section, without the references."""
        return sum(self.segments) + perf_counter() - self._start

    @property
    def scaled_s(self) -> float:
        """Each segment lies between references i and i + 1. It is scaled by
        the median of the 2 * WINDOW + 2 references nearest to it: the median
        ignores a sample slowed by a short burst, and the samples span about
        2.5 s, less than the machine's slow and fast stretches last."""
        refs = self.references
        return sum(
            seg * REFERENCE_S / statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 2])
            for i, seg in enumerate(self.segments)
        )
