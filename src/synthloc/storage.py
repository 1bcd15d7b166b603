"""Line-oriented CSV persistence for every pipeline artifact. All writers are
byte-deterministic: fixed float formats, sorted iteration, '\\n' newlines,
mandatory header lines."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .embed import EmbeddingModel, TraceRow
from .errors import DataError
from .geometry import ConsistencyScore, Scores, validate_pair
from .variants import DomainShift, PromptSet
from .worldgen import CameraIntrinsics, CameraPose, Landmarks, ViewImage, World

F9 = "%.9g"  # world-level floats
F17 = "%.17g"  # model weights, exact round-trip


def fmt(x: float, spec: str = F9) -> str:
    return spec % float(x)


def prompt_slug(name: str) -> str:
    return name.replace(" ", "_")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    # one `%` per row: the same "%.9g" and int conversions as `fmt` and `str`
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
    text_cols: tuple[int, ...] = (),
) -> np.ndarray | tuple[list[list[str]], np.ndarray]:
    """The float table of a CSV file with a header line of at least
    `min_width` columns and one or more rows of `what`s. Every row must have
    the header's column count and finite values, and each column of
    `int_cols` (numbered in the float table; the value names it) must hold
    integers; anything else raises DataError naming the file and line. With
    `text_cols`, those columns are read as text and returned first, one list
    per column in the order given, beside the table of the others."""
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
    text = [values[c::width] for c in text_cols]
    for c in sorted(text_cols, reverse=True):
        del values[c::width]
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
    return (text, table) if text_cols else table


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
    table = _parse_table(lines, path, "feature", 4, {2: "the landmark id"})
    return table[:, :2], table[:, 3:], np.clip(table[:, 2], -1, 2**62).astype(int)


def _load_features(path: Path, landmarks: Landmarks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feature arrays of one file, whose descriptors must be
    d-dimensional like the world's `landmarks`, and whose landmark ids must
    be -1 or the id of one of them."""
    kp, desc, lid = _parse_features(_read_lines(path), path)
    n, d = landmarks.descriptors.shape
    if desc.shape[1] != d:
        raise DataError(f"{path}: {desc.shape[1]}-dim descriptors, the world's have {d}")
    _reject_rows(path, [(lid >= n, "the landmark id is not in landmarks.csv")])
    return kp, desc, lid


def _view_line(view: ViewImage) -> str:
    q = view.pose.rotation
    p = view.pose.position
    return ",".join(
        [str(view.id)]
        + [fmt(x) for x in (q[0], q[1], q[2], q[3], p[0], p[1], p[2])]
        + [view.condition]
    )


def save_world(world: World, out_dir: str | os.PathLike) -> None:
    out = Path(out_dir)
    d = world.landmarks.descriptors.shape[1]

    lines = ["id,x,y,z," + ",".join(f"desc{i}" for i in range(d))]
    for i, (position, desc) in enumerate(zip(world.landmarks.positions, world.landmarks.descriptors)):
        lines.append(",".join([str(i)] + [fmt(x) for x in position] + [fmt(x) for x in desc]))
    _write_lines(out / "landmarks.csv", lines)

    lines = ["id,qw,qx,qy,qz,tx,ty,tz,condition"]
    for v in list(world.map_views) + list(world.query_views):
        lines.append(_view_line(v))
    _write_lines(out / "views.csv", lines)

    for v in list(world.map_views) + list(world.query_views):
        _write_lines(out / "features" / f"{v.id}.csv", _feature_lines(v))

    lines = ["a,b,count"]
    for a, b, c in world.matching_pairs:
        lines.append(f"{a},{b},{c}")
    _write_lines(out / "pairs.csv", lines)

    intr = world.map_views[0].intrinsics
    meta = [
        "key,value",
        f"seed,{world.seed}",
        f"descriptor_dim,{d}",
        f"num_map_views,{len(world.map_views)}",
        f"num_query_views,{len(world.query_views)}",
        f"focal,{fmt(intr.focal)}",
        f"cx,{fmt(intr.principal_point[0])}",
        f"cy,{fmt(intr.principal_point[1])}",
        f"width,{intr.image_size[0]}",
        f"height,{intr.image_size[1]}",
    ]
    _write_lines(out / "meta.csv", meta)


_META_KEYS = ("seed", "num_map_views", "num_query_views", "focal", "cx", "cy", "width", "height")
_META_INTS = ("seed", "num_map_views", "num_query_views", "width", "height")


def _load_meta(path: Path) -> dict[str, float]:
    """meta.csv's values by key, each a finite number, and an integer >= 0
    where the key counts or seeds something."""
    [keys], table = _parse_table(_read_lines(path), path, "meta entry", 2, text_cols=(0,))
    meta = dict(zip(keys, table[:, 0].tolist()))
    for key in _META_KEYS:
        if key not in meta:
            raise DataError(f"{path}: no {key} entry")
        if key in _META_INTS and not (meta[key] == round(meta[key]) and meta[key] >= 0):
            raise DataError(f"{path}:{keys.index(key) + 2}: {key} is not an integer >= 0")
    return meta


def load_world(in_dir: str | os.PathLike) -> World:
    src = Path(in_dir)
    path = src / "meta.csv"
    meta = _load_meta(path)
    try:
        intr = CameraIntrinsics(
            focal=meta["focal"],
            principal_point=np.array([meta["cx"], meta["cy"]]),
            image_size=(int(meta["width"]), int(meta["height"])),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None

    path = src / "landmarks.csv"
    table = _parse_table(_read_lines(path), path, "landmark", 5, {0: "the landmark id"})
    _reject_rows(
        path, [(table[:, 0] != np.arange(len(table)), "landmark ids must be 0 to L - 1 in row order")]
    )
    landmarks = Landmarks(table[:, 1:4], table[:, 4:])

    n_map = int(meta["num_map_views"])
    path = src / "views.csv"
    [conditions], table = _parse_table(
        _read_lines(path), path, "view", 9, {0: "the view id"}, text_cols=(8,)
    )
    n_query = int(meta["num_query_views"])
    if len(table) != n_map + n_query:
        raise DataError(
            f"{path}: {len(table)} views, meta.csv counts {n_map} map and {n_query} query views"
        )
    view_ids = table[:, 0].tolist()
    _reject_rows(
        path,
        [
            (_repeated(view_ids), "the view id is repeated"),
            (np.array(conditions) != "original", "the view's condition is not original"),
        ],
    )
    map_views: list[ViewImage] = []
    query_views: list[ViewImage] = []
    for row, values in enumerate(table):
        try:
            pose = CameraPose(rotation=values[1:5], position=values[5:8])
        except ValueError as exc:
            raise DataError(f"{path}:{row + 2}: {exc}") from None
        vid = int(values[0])
        feats = _load_features(src / "features" / f"{vid}.csv", landmarks)
        view = ViewImage(vid, pose, intr, *feats)
        (map_views if row < n_map else query_views).append(view)

    path = src / "pairs.csv"
    lines = _read_lines(path)
    ints = {0: "a view id", 1: "a view id", 2: "the count"}
    # a world may have no matching pairs
    table = _parse_table(lines, path, "pair", 3, ints) if len(lines) > 1 else np.empty((0, 3))
    ends = table[:, :2]
    map_ids = set(view_ids[:n_map])
    _reject_rows(
        path,
        [
            (np.array([a not in map_ids or b not in map_ids for a, b in ends.tolist()], dtype=bool),
             "a view id is not a map view's"),
            (ends[:, 0] == ends[:, 1], "the two view ids are equal"),
            (_repeated([frozenset(pair) for pair in ends.tolist()]), "the pair is repeated"),
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


def save_prompts(prompts: PromptSet, out_dir: str | os.PathLike) -> None:
    out = Path(out_dir)
    d = prompts.shifts[0].descriptor_bias.shape[0] if prompts.shifts else 0
    lines = [
        "name,bias_gain,descriptor_noise_sigma,dropout_rate,clutter_rate,keypoint_corruption_sigma,"
        + ",".join(f"bias{i}" for i in range(d))
    ]
    for s in prompts.shifts:
        lines.append(
            ",".join(
                [
                    s.name,
                    fmt(s.bias_gain),
                    fmt(s.descriptor_noise_sigma),
                    fmt(s.dropout_rate),
                    fmt(s.clutter_rate),
                    fmt(s.keypoint_corruption_sigma),
                ]
                + [fmt(x) for x in s.descriptor_bias]
            )
        )
    _write_lines(out / "prompts.csv", lines)


def load_prompts(in_dir: str | os.PathLike) -> PromptSet:
    path = Path(in_dir) / "prompts.csv"
    [names], table = _parse_table(_read_lines(path), path, "prompt", 7, text_cols=(0,))
    shifts = []
    for lineno, (name, row) in enumerate(zip(names, table), start=2):
        try:
            # the columns after the name hold DomainShift's fields after
            # descriptor_bias, in order, and then the bias
            shifts.append(DomainShift(name, row[5:], *row[:5].tolist()))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    try:
        return PromptSet(shifts=shifts)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_variants(
    variants: dict[int, list[ViewImage]], out_dir: str | os.PathLike
) -> None:
    out = Path(out_dir)
    for vid in sorted(variants):
        for view in variants[vid]:
            _write_lines(
                out / "features_variants" / prompt_slug(view.condition) / f"{vid}.csv",
                _feature_lines(view),
            )


def load_variants(
    in_dir: str | os.PathLike, world: World, prompts: PromptSet
) -> dict[int, list[ViewImage]]:
    src = Path(in_dir) / "features_variants"
    by_id = {v.id: v for v in world.map_views}
    out: dict[int, list[ViewImage]] = {}
    for vid in sorted(by_id):
        row = []
        for shift in prompts.shifts:
            feats = _load_features(src / prompt_slug(shift.name) / f"{vid}.csv", world.landmarks)
            base = by_id[vid]
            row.append(ViewImage(vid, base.pose, base.intrinsics, *feats, condition=shift.name))
        out[vid] = row
    return out


# ---------------------------------------------------------------------------
# consistency scores
# ---------------------------------------------------------------------------


_SCORES_HEADER = "query_id,positive_id,prompt,s,kept,original,valid@c_tau"


def save_scores(
    scores: Scores, c_tau: float, threshold_mode: str, out_dir: str | os.PathLike
) -> None:
    lines = [_SCORES_HEADER]
    for (q, p, prompt), s in sorted(scores.items()):
        valid = int(validate_pair(s, c_tau, threshold_mode))
        lines.append(f"{q},{p},{prompt},{s.value:.6f},{s.kept},{s.original},{valid}")
    _write_lines(Path(out_dir) / "consistency.csv", lines)


def load_scores(in_dir: str | os.PathLike, world: World, prompts: PromptSet) -> Scores:
    """The scores of a `save_scores` file, checked by `_parse_table`: its
    exact header, integer ids, counts and validity, 0 <= s <= 1 and
    0 <= kept <= original, ids of `world`'s map views and prompts of
    `prompts`, and one row for each (query id, positive id, prompt) key of
    the world's matching pairs, in both orientations, and the prompts."""
    path = Path(in_dir) / "consistency.csv"
    lines = _read_lines(path)
    scores: Scores = {}
    if lines[:1] != [_SCORES_HEADER]:
        raise DataError(f"{path}:1: the header is not {_SCORES_HEADER}")
    if len(lines) == 1 and not world.matching_pairs:
        return scores
    ints = {0: "the query id", 1: "the positive id", 3: "kept", 4: "original", 5: "valid@c_tau"}
    [names], table = _parse_table(lines, path, "score", 7, ints, text_cols=(2,))
    s, kept, original = table[:, 2], table[:, 3], table[:, 4]
    map_ids = {v.id for v in world.map_views}
    prompt_names = set(prompts.names())
    oriented = {pair for a, b, _ in world.matching_pairs for pair in ((a, b), (b, a))}
    keys = list(zip(*table[:, :2].T.tolist(), names))
    _reject_rows(
        path,
        [
            ((s < 0) | (s > 1), "s is not in [0, 1]"),
            ((kept < 0) | (kept > original), "kept is not in [0, original]"),
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
    for row, prompt in zip(table, names):
        q, p, value, k, o, _valid = row.tolist()
        scores[(int(q), int(p), prompt)] = ConsistencyScore(value, int(k), int(o))
    return scores


# ---------------------------------------------------------------------------
# model and training trace
# ---------------------------------------------------------------------------


def save_model(model: EmbeddingModel, path: str | os.PathLike) -> None:
    lines = [f"{model.e},{model.d}"]
    for row in model.projection:
        lines.append(",".join(fmt(x, F17) for x in row))
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
    for row in trace:
        lines.append(f"{row.episode},{fmt(row.mean_loss)},{fmt(row.synth_fraction)}")
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
        if r["status"] == "ok":
            lines.append(
                f"{r['query_id']},{r['protocol']},{r['k']},{fmt(r['tx_err'])},{fmt(r['rot_err'])},ok"
            )
        else:
            lines.append(f"{r['query_id']},{r['protocol']},{r['k']},,,{r['status']}")
    _write_lines(Path(path), lines)


def save_summary(rows: list[dict], path: str | os.PathLike) -> None:
    lines = ["protocol,k,condition,pct@high,pct@mid,pct@low"]
    for r in rows:
        lines.append(
            f"{r['protocol']},{r['k']},{r['condition']},"
            f"{r['high']:.2f},{r['mid']:.2f},{r['low']:.2f}"
        )
    _write_lines(Path(path), lines)


def load_summary(path: str | os.PathLike) -> list[dict]:
    """The rows of a `save_summary` file, checked by `_parse_table`: k an
    integer >= 1 and each percentage in [0, 100]."""
    [protocols, conditions], table = _parse_table(
        _read_lines(Path(path)), path, "summary row", 6, {0: "k"}, text_cols=(0, 2)
    )
    pct = table[:, 1:]
    _reject_rows(
        path,
        [
            (table[:, 0] < 1, "k is below 1"),
            (((pct < 0) | (pct > 100)).any(axis=1), "a percentage is not in [0, 100]"),
        ],
    )
    return [
        {"protocol": protocol, "k": int(k), "condition": condition, "high": hi, "mid": mid, "low": lo}
        for protocol, condition, (k, hi, mid, lo) in zip(protocols, conditions, table.tolist())
    ]
