"""Fan-out over the CPUs: `_fan_out` computes independent items in up to
one forked process per CPU of the affinity mask and joins the results in
item order, so what a caller does with them does not depend on the CPU
count. The verbs of `experiment` and `geometry.score_world_variants` use
it; `taskset -c 0` runs them serially."""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from collections.abc import Callable, Sequence

# True while this process computes a share of a `_fan_out` call, so that a
# call made from inside a share runs serially instead of forking again.
_in_share = False


def _fan_out(fn: Callable, items: Sequence) -> list:
    """`[fn(item) for item in items]`, computed by up to one process per CPU
    in this process's affinity mask.

    Ordering: the items are cut into n = min(CPUs, len(items)) contiguous
    shares. This process computes the first share and each of n - 1 forked
    children one other share; the results are joined in item order, so what
    the caller does with them does not depend on n. The call runs serially
    at n = 1, from inside a share of another call (calls never nest forks),
    and where the platform has no `os.fork` or `os.sched_getaffinity`.
    `fn` and the items reach the children through the fork's copy of memory;
    only the results travel back, pickled through a pipe.

    Errors: the first exception in item order is raised here. One raised in
    a child's share is pickled back and re-raised with its type kept, so a
    SynthlocError still reaches the CLI as one. A child that exits without
    sending a result raises RuntimeError naming its exit status.

    Reaping: every child is waited for before the call returns or raises;
    if this process's own share, or a child's, raises, the children still
    running are killed first. No child outlives the call, so none can still
    be writing files after it.
    """
    global _in_share
    if _in_share or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [fn(item) for item in items]
    n = min(len(os.sched_getaffinity(0)), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    size, extra = divmod(len(items), n)
    cuts = [i * size + min(i, extra) for i in range(n + 1)]
    shares = [items[cuts[i]: cuts[i + 1]] for i in range(n)]

    children: dict[int, int | None] = {}  # pid -> read end of its pipe (None once read)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks. The
                # only other threads here are BLAS's pool, which OpenBLAS
                # stops before a fork and restarts after it.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_share(fn, share, write_fd)  # never returns
            os.close(write_fd)
            children[pid] = read_fd
        _in_share = True
        try:
            results = [fn(item) for item in shares[0]]
        finally:
            _in_share = False
        for pid, read_fd in list(children.items()):
            pipe = os.fdopen(read_fd, "rb")
            children[pid] = None
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0 or not data:
                raise RuntimeError(
                    f"fan-out child {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without sending a result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, read_fd in children.items():
            os.kill(pid, signal.SIGKILL)
            if read_fd is not None:
                os.close(read_fd)
            os.waitpid(pid, 0)


def _run_share(fn: Callable, share: Sequence, write_fd: int) -> None:
    """A forked child's part of `_fan_out`: compute `share`, pickle
    (True, results) or (False, exception) into `write_fd`, and leave through
    `os._exit`, never returning into the caller's code."""
    global _in_share
    _in_share = True
    status = 1
    try:
        try:
            message = (True, [fn(item) for item in share])
        except BaseException as exc:  # sent to the parent, which re-raises it
            message = (False, exc)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(f"fan-out result cannot be sent: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
