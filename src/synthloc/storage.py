"""Line-oriented CSV persistence for every pipeline artifact. All writers are
byte-deterministic: fixed float formats, sorted iteration, '\\n' newlines,
mandatory header lines."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
from pathlib import Path

import numpy as np

from .embed import EmbeddingModel, TraceRow
from .errors import DataError
from .geometry import ConsistencyScore, Scores
from .localize import LEVELS
from .variants import DomainShift, PromptSet, generate_all_variants
from .worldgen import CameraPose, Landmarks, ViewImage, World, row_norms, shared_landmarks

# Every float is written by one `%` row string per line, with these specs
F9 = "%.9g"  # world-level floats
F17 = "%.17g"  # model weights, exact round-trip


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write `lines` to `path`, making its directory. A path that cannot be
    made or written (its directory is a file, say) raises DataError naming
    it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _read_lines(path: Path) -> list[str]:
    """The file's lines without their newlines. A file that is missing, that
    cannot be read (a directory, say) or that is not text raises DataError
    naming it."""
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        with open(path) as fh:
            return [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# world
# ---------------------------------------------------------------------------


def _feature_lines(view: ViewImage) -> list[str]:
    d = view.desc.shape[1]
    row = f"{F9},{F9},%d," + ",".join([F9] * d)
    lines = ["u,v,landmark_id," + ",".join(f"desc{i}" for i in range(d))]
    for (u, v), lid, desc in zip(
        view.kp.tolist(), view.lid.tolist(), view.desc.tolist()
    ):
        lines.append(row % (u, v, lid, *desc))
    return lines


def _parse_table(
    lines: list[str],
    path: str | os.PathLike,
    what: str,
    min_width: int,
    int_cols: dict[int, str] | None = None,
    text_col: int | None = None,
) -> tuple[list[str], np.ndarray]:
    """The float table of a CSV file with a header line of at least
    `min_width` columns and one or more rows of `what`s. Every row must have
    the header's column count and finite values, and each column of
    `int_cols` (numbered in the float table; the value names it) must hold
    integers; anything else raises DataError naming the file and line.
    Returns (text, table): `text_col`, if given, is read as text, one string
    per row, and left out of the table; otherwise the text list is empty."""
    if not lines or lines[0].count(",") + 1 < min_width:
        raise DataError(f"{path}: missing or short {what} header")
    body = lines[1:]
    if not body:
        raise DataError(f"{path}: no {what}s")
    width = lines[0].count(",") + 1
    for lineno, ln in enumerate(body, start=2):
        if ln.count(",") + 1 != width:
            raise DataError(f"{path}:{lineno}: {ln.count(',') + 1} columns, header has {width}")
    values = ",".join(body).split(",")
    text = []
    if text_col is not None:
        text = values[text_col::width]
        del values[text_col::width]
        width -= 1
    # every row has `width` values, so value k sits on line k // width + 2
    try:
        table = np.fromiter(map(float, values), float, len(values)).reshape(len(body), width)
    except ValueError:
        for k, x in enumerate(values):
            try:
                float(x)
            except ValueError:
                raise DataError(f"{path}:{k // width + 2}: {x!r} is not a number") from None
        raise
    checks = [(~np.isfinite(table).all(axis=1), "a value is not finite")]
    for col, name in (int_cols or {}).items():
        checks.append((table[:, col] != np.round(table[:, col]), f"{name} is not an integer"))
    _reject_rows(path, checks)
    return text, table


def _reject_rows(path: str | os.PathLike, checks: list[tuple[np.ndarray, str]]) -> None:
    """Raise DataError naming the file and the first flagged line of the first
    check, given as (per-row flags of a table's rows, what is wrong)."""
    for bad, why in checks:
        if bad.any():
            raise DataError(f"{path}:{int(np.argmax(bad)) + 2}: {why}")


# Id checks use Python sets: np.isin on these arrays sorts through
# np.unique, whose first call imports numpy.ma, about 1 MB more in every
# process that loads a world.
def _repeated(keys: list) -> np.ndarray:
    """Per-row flags of the rows whose key an earlier row already has."""
    seen: set = set()
    flags = np.zeros(len(keys), dtype=bool)
    for row, key in enumerate(keys):
        flags[row] = key in seen
        seen.add(key)
    return flags


def _parse_features(
    lines: list[str], path: str | os.PathLike
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keypoints, descriptors and landmark ids (-1 for clutter, as is any
    negative id, and 2**62, which no world has, for any id past it) of one
    `_feature_lines` file, checked by `_parse_table`."""
    _, table = _parse_table(lines, path, "feature", 4, {2: "the landmark id"})
    return table[:, :2], table[:, 3:], np.clip(table[:, 2], -1, 2**62).astype(int)


def _not_unit(desc: np.ndarray) -> tuple[np.ndarray, str]:
    """The check of descriptor rows whose length is not 1 within 1e-6: rows
    written with `F9` read back within about 1e-9 of it."""
    with np.errstate(over="ignore"):  # a row past float range has length inf
        return np.abs(row_norms(desc)[:, 0] - 1.0) > 1e-6, "the descriptor is not unit length"


def _load_features(path: Path, landmarks: Landmarks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feature arrays of one file, whose descriptors must be unit
    length and d-dimensional like the world's `landmarks`, and whose
    landmark ids must be -1 or the id of one of them, each at most once."""
    kp, desc, lid = _parse_features(_read_lines(path), path)
    n, d = landmarks.descriptors.shape
    if desc.shape[1] != d:
        raise DataError(f"{path}: {desc.shape[1]}-dim descriptors, the world's have {d}")
    _reject_rows(
        path,
        [
            _not_unit(desc),
            (lid >= n, "the landmark id is not in landmarks.csv"),
            (_repeated(lid.tolist()) & (lid >= 0), "the landmark id is repeated"),
        ],
    )
    return kp, desc, lid


# meta.csv's keys, in the order save_world writes them; no world file holds
# a camera, as every view is seen by `worldgen`'s one camera
_META_KEYS = ("seed", "num_map_views", "num_query_views")


def _write_entries(path: Path, entries: dict[str, int]) -> None:
    _write_lines(path, ["key,value"] + [f"{k},{v}" for k, v in entries.items()])


def save_world(world: World, out_dir: str | os.PathLike) -> None:
    out = Path(out_dir)
    d = world.landmarks.descriptors.shape[1]

    lines = ["id,x,y,z," + ",".join(f"desc{i}" for i in range(d))]
    row = "%d," + ",".join([F9] * (3 + d))
    table = np.column_stack([world.landmarks.positions, world.landmarks.descriptors])
    lines += [row % (i, *values) for i, values in enumerate(table.tolist())]
    _write_lines(out / "landmarks.csv", lines)

    lines = ["id,qw,qx,qy,qz,tx,ty,tz"]
    row = "%s," + ",".join([F9] * 7)
    for v in list(world.map_views) + list(world.query_views):
        lines.append(row % (v.id, *v.pose.rotation.tolist(), *v.pose.position.tolist()))
    _write_lines(out / "views.csv", lines)

    shutil.rmtree(out / "features", ignore_errors=True)  # no stale view files
    for v in list(world.map_views) + list(world.query_views):
        _write_lines(out / "features" / f"{v.id}.csv", _feature_lines(v))

    lines = ["a,b,count"]
    for a, b, c in world.matching_pairs:
        lines.append(f"{a},{b},{c}")
    _write_lines(out / "pairs.csv", lines)

    values = (world.seed, len(world.map_views), len(world.query_views))
    _write_entries(out / "meta.csv", dict(zip(_META_KEYS, values)))


def _load_entries(path: Path, keys: tuple[str, ...], writer: str) -> dict[str, int | float]:
    """The values by key, in file order, of a `_write_entries` file that
    `writer` writes: exactly `keys`, each once, each an integer >= 0;
    anything else raises DataError naming the file (and line). An entry is
    read from its text where `int` takes it, so exactly also past 2**53."""
    lines = _read_lines(path)
    names, table = _parse_table(lines, path, f"{path.stem} entry", 2, text_col=0)
    _reject_rows(path, [(_repeated(names), "the key is repeated")])
    entries = dict(zip(names, table[:, 0].tolist()))
    for name, line in zip(names, lines[1:]):
        # "7.0", or digits past int's length limit, keep the float checked below
        with contextlib.suppress(ValueError):
            entries[name] = int(line.split(",")[1])
    for key in keys:
        if key not in entries:
            raise DataError(f"{path}: no {key} entry")
        if not (entries[key] == round(entries[key]) and entries[key] >= 0):
            raise DataError(f"{path}:{names.index(key) + 2}: {key} is not an integer >= 0")
    unknown = np.array([name not in keys for name in names])
    _reject_rows(path, [(unknown, f"the key is not one {writer} writes")])
    return entries


def _load_meta(path: Path) -> dict[str, int | float]:
    """meta.csv's entries, read by `_load_entries`; a world has at least the
    2 map views of a trajectory."""
    meta = _load_entries(path, _META_KEYS, "save_world")
    if meta["num_map_views"] < 2:
        line = list(meta).index("num_map_views") + 2
        raise DataError(f"{path}:{line}: num_map_views is below 2, a trajectory's fewest views")
    return meta


def load_world(in_dir: str | os.PathLike) -> World:
    src = Path(in_dir)
    path = src / "landmarks.csv"
    _, table = _parse_table(_read_lines(path), path, "landmark", 5, {0: "the landmark id"})
    _reject_rows(
        path,
        [
            (table[:, 0] != np.arange(len(table)), "landmark ids must be 0 to L - 1 in row order"),
            _not_unit(table[:, 4:]),
        ],
    )
    landmarks = Landmarks(table[:, 1:4], table[:, 4:])

    meta = _load_meta(src / "meta.csv")
    n_map = int(meta["num_map_views"])
    path = src / "views.csv"
    _, table = _parse_table(_read_lines(path), path, "view", 8, {0: "the view id"})
    n_query = int(meta["num_query_views"])
    if len(table) != n_map + n_query:
        raise DataError(
            f"{path}: {len(table)} views, meta.csv counts {n_map} map and {n_query} query views"
        )
    view_ids = table[:, 0].tolist()
    _reject_rows(path, [(_repeated(view_ids), "the view id is repeated")])
    map_views: list[ViewImage] = []
    query_views: list[ViewImage] = []
    for row, values in enumerate(table):
        try:
            pose = CameraPose(rotation=values[1:5], position=values[5:8])
        except ValueError as exc:
            raise DataError(f"{path}:{row + 2}: {exc}") from None
        vid = int(values[0])
        feats = _load_features(src / "features" / f"{vid}.csv", landmarks)
        view = ViewImage(vid, pose, *feats)
        (map_views if row < n_map else query_views).append(view)

    path = src / "pairs.csv"
    lines = _read_lines(path)
    ints = {0: "a view id", 1: "a view id", 2: "the count"}
    # a world may have no matching pairs
    table = _parse_table(lines, path, "pair", 3, ints)[1] if len(lines) > 1 else np.empty((0, 3))
    ends = table[:, :2]
    map_ids = set(view_ids[:n_map])
    # the table's float ids find the int keys: 3.0 == 3 and hash alike
    shared = shared_landmarks(map_views)
    counts = [shared.get((a, b), shared.get((b, a), 0)) for a, b in ends.tolist()]
    _reject_rows(
        path,
        [
            (np.array([a not in map_ids or b not in map_ids for a, b in ends.tolist()], dtype=bool),
             "a view id is not a map view's"),
            (ends[:, 0] == ends[:, 1], "the two view ids are equal"),
            (_repeated([frozenset(pair) for pair in ends.tolist()]), "the pair is repeated"),
            (np.array(counts) != table[:, 2], "the count is not the number of landmarks both views see"),
            (table[:, 2] < 1, "the two views see no landmark in common"),
        ],
    )
    pairs = [(int(a), int(b), int(c)) for a, b, c in table]

    return World(
        landmarks=landmarks,
        map_views=map_views,
        query_views=query_views,
        matching_pairs=pairs,
        seed=int(meta["seed"]),
    )


# ---------------------------------------------------------------------------
# prompts and variants
# ---------------------------------------------------------------------------


def _prompt_lines(prompts: PromptSet) -> list[str]:
    d = prompts.shifts[0].descriptor_bias.shape[0] if prompts.shifts else 0
    # the name, DomainShift's fields after descriptor_bias, in order, and then the bias
    scalars = [f.name for f in dataclasses.fields(DomainShift)[2:]]
    lines = [",".join(["name", *scalars]) + "," + ",".join(f"bias{i}" for i in range(d))]
    row = "%s," + ",".join([F9] * (len(scalars) + d))
    for s in prompts.shifts:
        lines.append(row % (s.name, *(getattr(s, name) for name in scalars), *s.descriptor_bias.tolist()))
    return lines


def save_prompts(prompts: PromptSet, out_dir: str | os.PathLike) -> None:
    _write_lines(Path(out_dir) / "prompts.csv", _prompt_lines(prompts))


def load_prompts(in_dir: str | os.PathLike) -> PromptSet:
    path = Path(in_dir) / "prompts.csv"
    names, table = _parse_table(_read_lines(path), path, "prompt", 6, text_col=0)
    # the columns after the name hold DomainShift's fields after
    # descriptor_bias, in order, and then the bias
    _reject_rows(path, [(_not_unit(table[:, 4:])[0], "the bias is not unit length")])
    shifts = []
    for lineno, (name, row) in enumerate(zip(names, table), start=2):
        try:
            shifts.append(DomainShift(name, row[4:], *row[:4].tolist()))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    try:
        return PromptSet(shifts=shifts)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# The variants are a function of the world, the prompt set and the editor's
# keys, so a variants directory records the keys, not the variants:
# editor.csv holds the keys that `generate_all_variants` draws with, in this order.
_EDITOR_KEYS = ("variant_seed",)


def save_variants(seed: int, out_dir: str | os.PathLike) -> None:
    """Record `seed`, the variant seed the directory's variants were drawn
    with, in editor.csv."""
    out = Path(out_dir)
    # no stale files: a directory written before editor.csv held the variants themselves
    shutil.rmtree(out / "features_variants", ignore_errors=True)
    _write_entries(out / "editor.csv", dict(zip(_EDITOR_KEYS, (seed,))))


def load_variants(
    in_dir: str | os.PathLike, world: World, prompts: PromptSet
) -> dict[int, list[ViewImage]]:
    """The variants of a `variants` directory: `generate_all_variants` of
    `world` with `prompts` and editor.csv's seed. The directory's
    prompts.csv must hold what `save_prompts` writes for `prompts`, so that
    these are the variants its scores were computed on; editor.csv is read
    by `_load_entries`. Either fault raises DataError naming the file."""
    src = Path(in_dir)
    path = src / "prompts.csv"
    if _read_lines(path) != _prompt_lines(prompts):
        raise DataError(f"{path}: not the prompt set that variants draws with")
    editor = _load_entries(src / "editor.csv", _EDITOR_KEYS, "save_variants")
    return generate_all_variants(world, prompts, int(editor["variant_seed"]))


# ---------------------------------------------------------------------------
# consistency scores
# ---------------------------------------------------------------------------


_SCORES_HEADER = "query_id,positive_id,prompt,s,kept,original"


def save_scores(scores: Scores, out_dir: str | os.PathLike) -> None:
    lines = [_SCORES_HEADER]
    for (q, p, prompt), s in sorted(scores.items()):
        lines.append(f"{q},{p},{prompt},{s.value:.6f},{s.kept},{s.original}")
    _write_lines(Path(out_dir) / "consistency.csv", lines)


def load_scores(in_dir: str | os.PathLike, world: World, prompts: PromptSet) -> Scores:
    """The scores of a `save_scores` file, each built from its `kept` and
    `original` counts, checked by `_parse_table`: its exact header, integer
    ids and counts, 0 <= kept <= original, s in [0, 1] and kept / original
    to 6 decimals (0 when original is 0), ids of `world`'s map views and
    prompts of `prompts`, and one row for each (query id, positive id,
    prompt) key of the world's matching pairs, in both orientations, and
    the prompts."""
    path = Path(in_dir) / "consistency.csv"
    lines = _read_lines(path)
    scores: Scores = {}
    if lines[:1] != [_SCORES_HEADER]:
        raise DataError(f"{path}:1: the header is not {_SCORES_HEADER}")
    if len(lines) == 1 and not world.matching_pairs:
        return scores
    ints = {0: "the query id", 1: "the positive id", 3: "kept", 4: "original"}
    names, table = _parse_table(lines, path, "score", 6, ints, text_col=2)
    s, kept, original = table[:, 2], table[:, 3], table[:, 4]
    written = [float(f"{k / o:.6f}") if o else 0.0 for k, o in zip(kept.tolist(), original.tolist())]
    map_ids = {v.id for v in world.map_views}
    prompt_names = set(prompts.names())
    oriented = {pair for a, b, _ in world.matching_pairs for pair in ((a, b), (b, a))}
    keys = list(zip(*table[:, :2].T.tolist(), names))
    _reject_rows(
        path,
        [
            ((s < 0) | (s > 1), "s is not in [0, 1]"),
            ((kept < 0) | (kept > original), "kept is not in [0, original]"),
            (s != np.array(written), "s is not kept / original to 6 decimals"),
            (np.array([q not in map_ids or p not in map_ids for q, p, _ in keys], dtype=bool),
             "a view id is not a map view's"),
            (np.array([name not in prompt_names for name in names], dtype=bool),
             "the prompt is not in prompts.csv"),
            (_repeated(keys), "the (query, positive, prompt) key is repeated"),
            (np.array([(q, p) not in oriented for q, p, _ in keys], dtype=bool),
             "the (query, positive) pair is not in pairs.csv"),
        ],
    )
    # the keys are distinct and each is one of the world's, so any fewer means one is missing
    expected = len(oriented) * len(prompt_names)
    if len(keys) != expected:
        raise DataError(f"{path}: {len(keys)} scores, the world has {expected} keys")
    for (q, p, prompt), k, o in zip(keys, kept.tolist(), original.tolist()):
        scores[(int(q), int(p), prompt)] = ConsistencyScore(int(k), int(o))
    return scores


# ---------------------------------------------------------------------------
# model and training trace
# ---------------------------------------------------------------------------


def save_model(model: EmbeddingModel, path: str | os.PathLike) -> None:
    lines = [f"{model.e},{model.d}"]
    row = ",".join([F17] * model.d)
    for weights in model.projection.tolist():
        lines.append(row % tuple(weights))
    _write_lines(Path(path), lines)


def load_model(path: str | os.PathLike) -> EmbeddingModel:
    """A `save_model` file: an `e,d` header and e <= d rows of d finite
    weights. Anything else raises DataError naming the file."""
    lines = _read_lines(Path(path))
    try:
        e, d = (int(x) for x in lines[0].split(","))
        W = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: not a model file: {exc}") from None
    if W.shape != (e, d):
        raise DataError(f"model shape mismatch in {path}")
    try:
        return EmbeddingModel(projection=W)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_trace(trace: list[TraceRow], path: str | os.PathLike) -> None:
    lines = ["episode,mean_loss,synth_fraction"]
    for r in trace:
        lines.append(f"%s,{F9},{F9}" % (r.episode, r.mean_loss, r.synth_fraction))
    _write_lines(Path(path), lines)


# ---------------------------------------------------------------------------
# evaluation outputs
# ---------------------------------------------------------------------------


def save_rankings(rankings: dict[int, list[tuple[int, float]]], path: str | os.PathLike) -> None:
    lines = ["query_id,rank,view_id,score"]
    for qid in sorted(rankings):
        for rank, (vid, score) in enumerate(rankings[qid], start=1):
            lines.append(f"{qid},{rank},{vid},{score:.6f}")
    _write_lines(Path(path), lines)


def save_localization(rows: list[dict], path: str | os.PathLike) -> None:
    lines = ["query_id,protocol,k,tx_err_m,rot_err_deg,status"]
    for r in rows:
        e = r["error"]
        errors = f"{F9},{F9}" % (e.translation, e.rotation) if r["status"] == "ok" else ","
        lines.append(f"{r['query_id']},{r['protocol']},{r['k']},{errors},{r['status']}")
    _write_lines(Path(path), lines)


def save_summary(rows: list[dict], path: str | os.PathLike) -> None:
    lines = ["protocol,k,condition," + ",".join(f"pct@{level}" for level in LEVELS)]
    for r in rows:
        lines.append(
            f"{r['protocol']},{r['k']},{r['condition']}" + "".join(f",{r[level]:.2f}" for level in LEVELS)
        )
    _write_lines(Path(path), lines)

