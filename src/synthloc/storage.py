"""Line-oriented CSV persistence for every pipeline artifact. All writers are
byte-deterministic: fixed float formats, sorted iteration, '\\n' newlines,
mandatory header lines."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .embed import EmbeddingModel, TraceRow
from .errors import DataError
from .geometry import ConsistencyScore, ScoreStore
from .variants import DomainShift, PromptSet
from .worldgen import CameraIntrinsics, CameraPose, Landmark, ViewImage, World

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
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh]


# ---------------------------------------------------------------------------
# world
# ---------------------------------------------------------------------------


def _feature_lines(view: ViewImage) -> list[str]:
    d = view.descriptors().shape[1]
    # one `%` per row: the same "%.9g" and int conversions as `fmt` and `str`
    row = f"{F9},{F9},%d," + ",".join([F9] * d)
    lines = ["u,v,landmark_id," + ",".join(f"desc{i}" for i in range(d))]
    for (u, v), lid, desc in zip(
        view.keypoints().tolist(), view.landmark_ids().tolist(), view.descriptors().tolist()
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
) -> np.ndarray | tuple[list[str], np.ndarray]:
    """The float table of a CSV file with a header line of at least
    `min_width` columns and one or more rows of `what`s. Every row must have
    the header's column count and finite values, and each column of
    `int_cols` (numbered in the float table; the value names it) must hold
    integers; anything else raises DataError naming the file and line. With
    `text_col`, that column is read as text and returned first, beside the
    table of the others."""
    if not lines or lines[0].count(",") + 1 < min_width:
        raise DataError(f"{path}: missing or short {what} header")
    body = lines[1:]
    if not body:
        raise DataError(f"{path}: no {what}s")
    width = lines[0].count(",") + 1
    for lineno, ln in enumerate(body, start=2):
        if ln.count(",") + 1 != width:
            raise DataError(f"{path}:{lineno}: {ln.count(',') + 1} columns, header has {width}")
    if text_col is not None:
        rows = [ln.split(",") for ln in body]
        text = [row.pop(text_col) for row in rows]
        body = [",".join(row) for row in rows]
        width -= 1
    # every row has `width` values, so value k sits on line k // width + 2
    values = ",".join(body).split(",")
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
    for bad, why in checks:
        if bad.any():
            raise DataError(f"{path}:{int(np.argmax(bad)) + 2}: {why}")
    return table if text_col is None else (text, table)


def _parse_features(
    lines: list[str], path: str | os.PathLike
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keypoints, descriptors and landmark ids (-1 for clutter, as is any
    negative id) of one `_feature_lines` file, checked by `_parse_table`."""
    table = _parse_table(lines, path, "feature", 4, {2: "the landmark id"})
    return table[:, :2], table[:, 3:], np.maximum(table[:, 2], -1).astype(int)


def _load_features(path: Path, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feature arrays of one file, whose descriptors must be
    d-dimensional like the world's landmarks."""
    kp, desc, lid = _parse_features(_read_lines(path), path)
    if desc.shape[1] != d:
        raise DataError(f"{path}: {desc.shape[1]}-dim descriptors, the world's have {d}")
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
    d = world.landmarks[0].base_descriptor.shape[0]

    lines = ["id,x,y,z," + ",".join(f"desc{i}" for i in range(d))]
    for lm in world.landmarks:
        lines.append(
            ",".join([str(lm.id)] + [fmt(x) for x in lm.position] + [fmt(x) for x in lm.base_descriptor])
        )
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
    """meta.csv's values by key, each a finite number, and an integer where
    the key counts or seeds something."""
    keys, table = _parse_table(_read_lines(path), path, "meta entry", 2, text_col=0)
    meta = dict(zip(keys, table[:, 0].tolist()))
    for key in _META_KEYS:
        if key not in meta:
            raise DataError(f"{path}: no {key} entry")
        if key in _META_INTS and meta[key] != round(meta[key]):
            raise DataError(f"{path}:{keys.index(key) + 2}: {key} is not an integer")
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
    landmarks = [
        Landmark(id=int(row[0]), position=row[1:4], base_descriptor=row[4:]) for row in table
    ]

    d = landmarks[0].base_descriptor.shape[0]
    n_map = int(meta["num_map_views"])
    path = src / "views.csv"
    conditions, table = _parse_table(
        _read_lines(path), path, "view", 9, {0: "the view id"}, text_col=8
    )
    n_query = int(meta["num_query_views"])
    if len(table) != n_map + n_query:
        raise DataError(
            f"{path}: {len(table)} views, meta.csv counts {n_map} map and {n_query} query views"
        )
    map_views: list[ViewImage] = []
    query_views: list[ViewImage] = []
    for row, (values, condition) in enumerate(zip(table, conditions)):
        try:
            pose = CameraPose(rotation=values[1:5], position=values[5:8])
        except ValueError as exc:
            raise DataError(f"{path}:{row + 2}: {exc}") from None
        vid = int(values[0])
        feats = _load_features(src / "features" / f"{vid}.csv", d)
        view = ViewImage(vid, pose, intr, *feats, condition=condition)
        (map_views if row < n_map else query_views).append(view)

    path = src / "pairs.csv"
    lines = _read_lines(path)
    ints = {0: "a view id", 1: "a view id", 2: "the count"}
    # a world may have no matching pairs
    table = _parse_table(lines, path, "pair", 3, ints) if len(lines) > 1 else []
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
    names, table = _parse_table(_read_lines(path), path, "prompt", 7, text_col=0)
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
    d = world.landmarks[0].base_descriptor.shape[0]
    out: dict[int, list[ViewImage]] = {}
    for vid in sorted(by_id):
        row = []
        for shift in prompts.shifts:
            feats = _load_features(src / prompt_slug(shift.name) / f"{vid}.csv", d)
            base = by_id[vid]
            row.append(ViewImage(vid, base.pose, base.intrinsics, *feats, condition=shift.name))
        out[vid] = row
    return out


# ---------------------------------------------------------------------------
# consistency scores
# ---------------------------------------------------------------------------


def save_scores(
    scores: ScoreStore, c_tau: float, threshold_mode: str, out_dir: str | os.PathLike
) -> None:
    from .geometry import validate_pair

    lines = ["query_id,positive_id,prompt,s,kept,original,valid@c_tau"]
    for (q, p, prompt), s in sorted(scores.items()):
        valid = int(validate_pair(s, c_tau, threshold_mode))
        lines.append(f"{q},{p},{prompt},{s.value:.6f},{s.kept},{s.original},{valid}")
    _write_lines(Path(out_dir) / "consistency.csv", lines)


def load_scores(in_dir: str | os.PathLike) -> ScoreStore:
    store = ScoreStore()
    for ln in _read_lines(Path(in_dir) / "consistency.csv")[1:]:
        q, p, prompt, s, kept, original, _valid = ln.split(",")
        store.add(
            int(q), int(p), prompt, ConsistencyScore(float(s), int(kept), int(original))
        )
    return store


# ---------------------------------------------------------------------------
# model and training trace
# ---------------------------------------------------------------------------


def save_model(model: EmbeddingModel, path: str | os.PathLike) -> None:
    lines = [f"{model.e},{model.d}"]
    for row in model.projection:
        lines.append(",".join(fmt(x, F17) for x in row))
    _write_lines(Path(path), lines)


def load_model(path: str | os.PathLike) -> EmbeddingModel:
    """A `save_model` file: an `e,d` header and e rows of d finite weights.
    Anything else raises DataError naming the file."""
    lines = _read_lines(Path(path))
    try:
        e, d = (int(x) for x in lines[0].split(","))
        W = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: not a model file: {exc}") from None
    if W.shape != (e, d):
        raise DataError(f"model shape mismatch in {path}")
    if not np.all(np.isfinite(W)):
        raise DataError(f"{path}: model weights are not finite")
    return EmbeddingModel(projection=W)


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
    rows = []
    for ln in _read_lines(Path(path))[1:]:
        protocol, k, condition, hi, mid, lo = ln.split(",")
        rows.append(
            {
                "protocol": protocol,
                "k": int(k),
                "condition": condition,
                "high": float(hi),
                "mid": float(mid),
                "low": float(lo),
            }
        )
    return rows
