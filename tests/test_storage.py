from dataclasses import replace

import numpy as np
import pytest

from synthloc import storage
from synthloc.embed import EmbeddingModel, TraceRow, init_model
from synthloc.errors import DataError
from synthloc.geometry import ConsistencyScore
from synthloc.localize import PoseError
from synthloc.variants import DomainShift, PromptSet
from synthloc.worldgen import CameraPose, Landmarks


def test_world_roundtrip(tmp_path, small_world):
    storage.save_world(small_world, tmp_path)
    loaded = storage.load_world(tmp_path)
    assert loaded.seed == small_world.seed
    assert len(loaded.map_views) == len(small_world.map_views)
    assert len(loaded.query_views) == len(small_world.query_views)
    assert loaded.matching_pairs == small_world.matching_pairs
    assert loaded.landmarks.positions.shape == small_world.landmarks.positions.shape
    assert np.allclose(loaded.landmarks.positions, small_world.landmarks.positions, atol=1e-8)
    assert np.allclose(loaded.landmarks.descriptors, small_world.landmarks.descriptors, atol=1e-8)
    for va, vb in zip(loaded.map_views, small_world.map_views):
        assert va.id == vb.id
        assert va.condition == vb.condition
        assert np.allclose(va.pose.position, vb.pose.position, atol=1e-8)
        assert np.allclose(va.kp, vb.kp, atol=1e-6)
        assert np.array_equal(va.lid, vb.lid)


def test_world_save_is_idempotent_after_load(tmp_path, small_world):
    """9-significant-digit printing is stable under a save/load/save cycle."""
    storage.save_world(small_world, tmp_path / "a")
    loaded = storage.load_world(tmp_path / "a")
    storage.save_world(loaded, tmp_path / "b")
    for rel in ["landmarks.csv", "views.csv", "pairs.csv", "meta.csv"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    for f in sorted((tmp_path / "a" / "features").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / "features" / f.name).read_bytes()


def test_load_world_missing_files(tmp_path):
    with pytest.raises(DataError):
        storage.load_world(tmp_path / "nope")


def test_model_roundtrip_exact(tmp_path):
    model = init_model(12, 6, seed=3)
    storage.save_model(model, tmp_path / "model.csv")
    loaded = storage.load_model(tmp_path / "model.csv")
    assert np.array_equal(loaded.projection, model.projection)
    assert loaded.e == 6 and loaded.d == 12


def test_prompts_roundtrip(tmp_path, small_prompts):
    storage.save_prompts(small_prompts, tmp_path)
    loaded = storage.load_prompts(tmp_path)
    assert loaded.names() == small_prompts.names()
    for a, b in zip(loaded.shifts, small_prompts.shifts):
        assert abs(a.bias_gain - b.bias_gain) < 1e-8
        assert abs(a.dropout_rate - b.dropout_rate) < 1e-8
        assert np.allclose(a.descriptor_bias, b.descriptor_bias, atol=1e-8)


def test_variants_roundtrip(tmp_path, small_world, small_prompts, small_variants):
    """A variants directory records its seed, not its variants: they are
    read back as `generate_all_variants` makes them, bit for bit."""
    storage.save_prompts(small_prompts, tmp_path)
    storage.save_variants(0, tmp_path)
    assert (tmp_path / "editor.csv").read_text() == "key,value\nvariant_seed,0\n"
    loaded = storage.load_variants(tmp_path, small_world, small_prompts)
    assert list(loaded) == list(small_variants)
    for vid in loaded:
        for va, vb in zip(loaded[vid], small_variants[vid], strict=True):
            assert va.condition == vb.condition
            for name in ("kp", "desc", "lid"):
                assert getattr(va, name).tobytes() == getattr(vb, name).tobytes()


def test_scores_roundtrip(tmp_path, small_world, small_prompts, small_scores):
    storage.save_scores(small_scores, tmp_path)
    loaded = storage.load_scores(tmp_path, small_world, small_prompts)
    assert len(loaded) == len(small_scores)
    for key, s in small_scores.items():
        got = loaded[key]
        assert got.kept == s.kept
        assert got.original == s.original
        assert abs(got.value - s.value) < 1e-6


def test_load_scores_takes_a_lone_header_only_for_a_world_without_pairs(
    tmp_path, small_world, small_prompts
):
    storage.save_scores({}, tmp_path)
    assert storage.load_scores(tmp_path, replace(small_world, matching_pairs=[]), small_prompts) == {}
    with pytest.raises(DataError, match="no scores"):
        storage.load_scores(tmp_path, small_world, small_prompts)


def test_scores_csv_validity_column(tmp_path):
    scores = {(0, 1, "a"): ConsistencyScore(10, 20), (0, 1, "b"): ConsistencyScore(2, 20)}
    storage.save_scores(scores, tmp_path)
    lines = (tmp_path / "consistency.csv").read_text().splitlines()
    assert lines[0] == "query_id,positive_id,prompt,s,kept,original"
    rows = {ln.split(",")[2]: ln.split(",") for ln in lines[1:]}
    assert rows["a"][3] == "0.500000"
    assert rows["b"][3] == "0.100000"


def test_trace_format(tmp_path):
    trace = [TraceRow(0, 1.5, 0.25), TraceRow(1, 0.75, 0.5)]
    storage.save_trace(trace, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines == ["episode,mean_loss,synth_fraction", "0,1.5,0.25", "1,0.75,0.5"]


def test_rankings_format(tmp_path):
    storage.save_rankings({5: [(2, 0.987654321), (0, 0.5)]}, tmp_path / "rankings.csv")
    lines = (tmp_path / "rankings.csv").read_text().splitlines()
    assert lines == ["query_id,rank,view_id,score", "5,1,2,0.987654", "5,2,0,0.500000"]


def test_summary_roundtrip(tmp_path):
    rows = [
        {"protocol": "ewb", "k": 1, "condition": "original", "high": 12.345, "mid": 50.0, "low": 100.0},
        {"protocol": "sfm", "k": 5, "condition": "at night", "high": 0.0, "mid": 2.5, "low": 1 / 3},
    ]
    storage.save_summary(rows, tmp_path / "summary.csv")
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines == [
        "protocol,k,condition,pct@high,pct@mid,pct@low",
        "ewb,1,original,12.35,50.00,100.00",  # 2-decimal fixed point
        "sfm,5,at night,0.00,2.50,0.33",
    ]


@pytest.mark.parametrize(
    "lines, reason",
    [
        ([], "header"),
        (["u,v,landmark_id"], "header"),
        (["u,v,landmark_id,desc0"], "no features"),
        (["u,v,landmark_id,desc0", "1,2,3,0.5", "1,2,3"], "f.csv:3: 3 columns, header has 4"),
        (["u,v,landmark_id,desc0", "1,2,3,0.5,7"], "f.csv:2: 5 columns"),
        (["u,v,landmark_id,desc0", "1,2,3,0.5", "1,2,x,0.5"], "f.csv:3: 'x' is not a number"),
        (["u,v,landmark_id,desc0", "1,inf,3,0.5"], "f.csv:2: a value is not finite"),
        (["u,v,landmark_id,desc0", "1,2,3,0.5", "1,2,3.5,0.5"], "f.csv:3: the landmark id"),
        (["u,v,landmark_id,desc0", "1,2,3,0.5", ""], "f.csv:3: 1 columns"),
    ],
)
def test_parse_features_rejects_malformed_rows(lines, reason):
    with pytest.raises(DataError, match=reason):
        storage._parse_features(lines, "f.csv")


def _set(row, col, value):
    def edit(lines):
        parts = lines[row].split(",")
        parts[col] = value
        return lines[:row] + [",".join(parts)] + lines[row + 1:]
    return edit


@pytest.mark.parametrize(
    "edit, reason",
    [
        (_set(3, 1, "nan"), r"landmarks.csv:4: a value is not finite"),
        (_set(2, 4, "0.1x"), r"landmarks.csv:3: '0.1x' is not a number"),
        (_set(5, 0, "4.5"), r"landmarks.csv:6: the landmark id is not an integer"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], r"landmarks.csv:3: \d+ columns"),
        (lambda lines: lines[:1], "no landmarks"),
        (lambda lines: [""], "missing or short landmark header"),
    ],
    ids=["nan", "not-a-number", "fractional-id", "short-row", "no-rows", "empty"],
)
def test_load_world_rejects_malformed_landmarks(tmp_path, small_world, edit, reason):
    """landmarks.csv goes through the feature files' table checks."""
    storage.save_world(small_world, tmp_path)
    path = tmp_path / "landmarks.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=reason):
        storage.load_world(tmp_path)


def test_load_world_rejects_a_landmark_id_past_the_int_range(tmp_path, small_world):
    """A feature's landmark id too large for an int is out of range, not
    clutter."""
    storage.save_world(small_world, tmp_path)
    path = tmp_path / "features" / "0.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[2] = "1e19"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="0.csv:2: the landmark id is not in landmarks.csv"):
        storage.load_world(tmp_path)


def test_parse_features_reads_clutter_and_integral_ids():
    kp, desc, lid = storage._parse_features(
        ["u,v,landmark_id,d0,d1", "1,2,-1,0.5,-0", "3,4,7.0,1e-07,2", "5,6,-3,0,0"], "f.csv"
    )
    assert lid.tolist() == [-1, 7, -1]
    assert kp[1].tolist() == [3.0, 4.0]
    assert desc[0].tobytes() == np.array([0.5, -0.0]).tobytes()


# ---------------------------------------------------------------- writers against per-value references

# a signed zero, a %.9g exponent form below and above, a subnormal, and
# values that %.9g and %.17g round
AWKWARD = [-0.0, 1e-7, 1e16, 5e-324, 1.2345678912e6, -7.77e15, 1 / 3, 0.1]


def ref_fmt(x, spec="%.9g"):
    return spec % float(x)


def _written(path):
    return path.read_text().splitlines()


def test_save_world_equals_per_value_reference(tmp_path, small_world):
    positions = small_world.landmarks.positions.copy()
    descriptors = small_world.landmarks.descriptors.copy()
    positions[0] = AWKWARD[:3]
    positions[1] = AWKWARD[3:6]
    descriptors[2, : len(AWKWARD)] = AWKWARD
    first = small_world.map_views[0]
    pose = CameraPose(rotation=[1.0, -0.0, 1e-7, 5e-324], position=[1e16, -0.0, 5e-324])
    world = replace(
        small_world,
        landmarks=Landmarks(positions, descriptors),
        map_views=[replace(first, pose=pose), *small_world.map_views[1:]],
    )
    storage.save_world(world, tmp_path)

    d = descriptors.shape[1]
    want = ["id,x,y,z," + ",".join(f"desc{i}" for i in range(d))] + [
        ",".join([str(i)] + [ref_fmt(x) for x in position] + [ref_fmt(x) for x in desc])
        for i, (position, desc) in enumerate(zip(positions, descriptors))
    ]
    assert _written(tmp_path / "landmarks.csv") == want
    assert want[1].startswith("0,-0,1e-07,1e+16,") and want[2].startswith("1,4.94065646e-324,")
    views = list(world.map_views) + list(world.query_views)
    want = ["id,qw,qx,qy,qz,tx,ty,tz"] + [
        ",".join([str(v.id)] + [ref_fmt(x) for x in (*v.pose.rotation, *v.pose.position)])
        for v in views
    ]
    assert _written(tmp_path / "views.csv") == want
    assert want[1] == "0,1,-0,1e-07,4.94065646e-324,1e+16,-0,4.94065646e-324"
    want = [
        "key,value",
        f"seed,{world.seed}",
        f"num_map_views,{len(world.map_views)}",
        f"num_query_views,{len(world.query_views)}",
    ]
    assert _written(tmp_path / "meta.csv") == want


def test_save_prompts_equals_per_value_reference(tmp_path):
    shifts = [
        DomainShift("odd one", np.array(AWKWARD), -0.0, 1e16, 5e-324, 1.2345678912e6),
        DomainShift("plain", np.array(AWKWARD[::-1]), 0.5, 1 / 3, 0.1, 0.0),
    ]
    storage.save_prompts(PromptSet(shifts), tmp_path)
    want = [
        "name,bias_gain,descriptor_noise_sigma,dropout_rate,clutter_rate,"
        + ",".join(f"bias{i}" for i in range(len(AWKWARD)))
    ] + [
        ",".join(
            [s.name]
            + [
                ref_fmt(x)
                for x in (s.bias_gain, s.descriptor_noise_sigma, s.dropout_rate, s.clutter_rate)
            ]
            + [ref_fmt(x) for x in s.descriptor_bias]
        )
        for s in shifts
    ]
    assert _written(tmp_path / "prompts.csv") == want
    assert want[1].startswith("odd one,-0,1e+16,4.94065646e-324,1234567.89,-0,1e-07,")


def test_save_model_equals_per_value_reference(tmp_path):
    W = np.array([AWKWARD, AWKWARD[::-1], [2.0 ** -1074 * k for k in range(1, 9)]])
    storage.save_model(EmbeddingModel(W), tmp_path / "model.csv")
    want = ["3,8"] + [",".join(ref_fmt(x, "%.17g") for x in row) for row in W]
    assert _written(tmp_path / "model.csv") == want
    assert want[1] == (
        "-0,9.9999999999999995e-08,10000000000000000,4.9406564584124654e-324,1234567.8912,"
        "-7770000000000000,0.33333333333333331,0.10000000000000001"
    )


def test_save_trace_equals_per_value_reference(tmp_path):
    trace = [TraceRow(0, -0.0, 5e-324), TraceRow(1, 1e16, 1e-7), TraceRow(2, 1 / 3, 0.1)]
    storage.save_trace(trace, tmp_path / "trace.csv")
    want = ["episode,mean_loss,synth_fraction"] + [
        f"{r.episode},{ref_fmt(r.mean_loss)},{ref_fmt(r.synth_fraction)}" for r in trace
    ]
    assert _written(tmp_path / "trace.csv") == want
    assert want[1:3] == ["0,-0,4.94065646e-324", "1,1e+16,1e-07"]


def test_save_localization_equals_per_value_reference(tmp_path):
    rows = [
        {"query_id": 40, "protocol": "ewb", "k": 1, "error": PoseError(-0.0, 5e-324), "status": "ok"},
        {"query_id": 41, "protocol": "sfm", "k": 5, "error": None, "status": "no consensus"},
        {"query_id": 42, "protocol": "sfm", "k": 1, "error": PoseError(1e16, 1e-7), "status": "ok"},
        {"query_id": 43, "protocol": "ewb", "k": 5, "error": PoseError(1 / 3, 1e6 / 7), "status": "ok"},
    ]
    storage.save_localization(rows, tmp_path / "localization.csv")
    want = ["query_id,protocol,k,tx_err_m,rot_err_deg,status"]
    for r in rows:
        e = r["error"]
        errors = f"{ref_fmt(e.translation)},{ref_fmt(e.rotation)}" if e else ","
        want.append(f"{r['query_id']},{r['protocol']},{r['k']},{errors},{r['status']}")
    assert _written(tmp_path / "localization.csv") == want
    assert want[1:3] == ["40,ewb,1,-0,4.94065646e-324,ok", "41,sfm,5,,,no consensus"]
