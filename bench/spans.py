"""Spans recorded from outside synthloc.

`Tracer.install` replaces selected public functions of each synthloc module,
at every module attribute that holds them (so `synthloc.localize.match_features`
is wrapped as well as `synthloc.geometry.match_features`), with a wrapper that
records a span: name, start, end, parent span and a few facts about the call.
Spans stay in memory; `uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Functions wrapped per module. These are the calls that cross a layer
# boundary in the pipeline; helpers called only inside their own layer are
# left alone so that tracing stays cheap.
TARGETS = {
    "worldgen": ("generate_world",),
    "variants": ("default_prompt_set", "generate_all_variants", "shift_queries"),
    "geometry": ("match_features", "score_world_variants"),
    "embed": ("aggregate", "train", "average_models"),
    "index": ("train_codebook", "build_index", "retrieve"),
    "localize": ("ewb_pose", "sfm_localize", "pnp_ransac", "pose_error"),
    "storage": (
        "save_world", "load_world", "save_prompts", "load_prompts",
        "save_variants", "load_variants", "save_scores", "load_scores",
        "save_model", "load_model", "save_trace", "save_rankings",
        "save_localization", "save_summary",
    ),
    "experiment": ("load_config", "cmd_worldgen", "cmd_variants", "cmd_train", "cmd_evaluate"),
    "cli": ("main",),
}

# cli is the thin argument layer over experiment; both count as one layer.
LAYER_OF_MODULE = {"cli": "experiment"}


def _retrieve_info(args, kwargs):
    return {"backend": kwargs.get("backend", args[3] if len(args) > 3 else "global_cosine")}


def _train_info(args, kwargs):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    return {"mode": config.mode, "steps": config.episodes * config.pairs_per_episode}


def _train_done(info, result):
    trace = result[1]
    info["synth_fraction"] = sum(r.synth_fraction for r in trace) / len(trace) if trace else 0.0


def _pnp_done(info, result):
    info["inliers"] = len(result[1])


def _keep_result(info, result):
    info["result"] = result


# (before, after) hooks: `before(args, kwargs)` returns the span's info dict,
# `after(info, result)` adds to it once the call has returned. Both run
# outside the span's interval.
HOOKS = {
    "index.retrieve": (_retrieve_info, None),
    "embed.train": (_train_info, _train_done),
    "localize.pnp_ransac": (lambda args, kwargs: {"corr": len(args[0])}, _pnp_done),
    "geometry.score_world_variants": (None, _keep_result),
    "cli.main": (lambda args, kwargs: {"verb": (args[0] if args else kwargs["argv"])[0]}, None),
}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        module = self.name.split(".", 1)[0]
        return LAYER_OF_MODULE.get(module, module)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._history: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as the timed section."""
        idx = self._open(name, {})
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str, info: dict) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1, info=info))
        self._stack.append(idx)
        self.spans[idx].start = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, before(args, kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.spans[idx].info["error"] = type(exc).__name__
                raise
            self._close(idx)
            if after:
                after(self.spans[idx].info, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target function at each synthloc module attribute that
        refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "synthloc"]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"synthloc.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        self._history.extend(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @property
    def wrapped_count(self) -> int:
        """Module attributes wrapped so far, over all installs."""
        return len(self._history)

    def write_csv(self, path) -> None:
        """The spans, one line each, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        lines = ["index,parent,name,start_s,end_s"]
        lines += [
            f"{i},{s.parent},{s.name},{s.start - t0:.9f},{s.end - t0:.9f}"
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def leftovers(self) -> list[str]:
        """Attributes ever wrapped that do not hold their original object
        again, and any wrapper still reachable from a synthloc module."""
        bad = {
            f"{module.__name__}.{attr}"
            for module, attr, original in self._history
            if getattr(module, attr) is not original
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "synthloc":
                bad.update(
                    f"{name}.{attr}"
                    for attr, value in vars(module).items()
                    if callable(value) and hasattr(value, "__wrapped__")
                )
        return sorted(bad)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover. Spans
    of one thread nest, so the children of a span never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of `root` and every span below it. Children are recorded after
    their parent, so one forward pass finds them."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)
