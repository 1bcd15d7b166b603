"""Fuzzing the file readers with mutated copies of real files, changed
token by token and byte by byte: whatever the mutation, a reader returns or raises a SynthlocError (the config reader a
ConfigError), never another exception.

Each run draws new examples, and hypothesis replays the ones that failed
before; raise `max_examples` to search further."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synthloc import storage
from synthloc.embed import init_model
from synthloc.errors import ConfigError, SynthlocError
from synthloc.experiment import load_config
from synthloc.variants import PromptSet

# What a mutation may write in place of a token: ids of other rows, numbers
# no file holds, and text that is not a number.
REPLACEMENTS = ["-1", "16", "1e19", "99999999999999999999", "1.5", "nan", "", "x", "at night"]

# A mutation may also insert this byte, which no UTF-8 text holds. The
# mutated text carries it as the surrogate that "surrogateescape" writes as
# the byte itself.
INVALID_BYTE = b"\xff".decode("utf-8", "surrogateescape")

# Half the token picks fall in the first six columns, where the ids and
# counts are.
INDEX = st.one_of(st.integers(0, 5), st.integers(0, 1 << 16))

MUTATION = st.tuples(
    st.sampled_from(
        ["drop", "duplicate", "swap", "replace", "truncate", "invalid byte", "drop line", "repeat line"]
    ),
    INDEX,
    INDEX,
    INDEX,
    st.sampled_from(REPLACEMENTS),
)

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def mutate(text: str, mutations) -> str:
    """`text` with each mutation applied in turn. A mutation picks lines and
    tokens (comma-separated fields) by its integers modulo their counts:
    it drops or duplicates a token, swaps two tokens (of one line or of two),
    replaces a token, truncates a line, inserts `INVALID_BYTE` into a line,
    or drops or repeats a line."""
    lines = text.split("\n")[:-1]
    for kind, i, j, k, replacement in mutations:
        if not lines:
            break
        a = i % len(lines)
        b = j % len(lines)
        row = lines[a].split(",")
        t = k % len(row)
        if kind == "drop":
            del row[t]
        elif kind == "duplicate":
            row.insert(t, row[t])
        elif kind == "swap":
            other = lines[b].split(",")
            u = (k // len(row)) % len(other)
            if a == b:
                row[t], row[u] = row[u], row[t]
            else:
                row[t], other[u] = other[u], row[t]
                lines[b] = ",".join(other)
        elif kind == "replace":
            row[t] = replacement
        elif kind == "truncate":
            lines[a] = lines[a][: k % (len(lines[a]) + 1)]
            continue
        elif kind == "invalid byte":
            at = k % (len(lines[a]) + 1)
            lines[a] = lines[a][:at] + INVALID_BYTE + lines[a][at:]
            continue
        elif kind == "drop line":
            del lines[a]
            continue
        else:  # repeat line
            lines.insert(j % (len(lines) + 1), lines[a])
            continue
        lines[a] = ",".join(row)
    return "".join(ln + "\n" for ln in lines)


class Saved:
    """A directory of saved prompts, variants and scores, with the world and
    the prompts they belong to. Its repr is the directory alone: hypothesis
    reprs a failing test's arguments in its report, and the world and prompts
    run to hundreds of kB, enough for its "overly large repr" warning, an
    error under `filterwarnings = error`, to take the report's place."""

    def __init__(self, path: Path, world, prompts):
        self.path, self.world, self.prompts = path, world, prompts

    def __repr__(self) -> str:
        return f"Saved({str(self.path)!r})"


@pytest.fixture(scope="module")
def saved(tmp_path_factory, small_world, small_prompts, small_variants, small_scores):
    out = tmp_path_factory.mktemp("readers")
    storage.save_prompts(small_prompts, out)
    storage.save_variants(small_variants, out)
    storage.save_scores(small_scores, 0.2, "relative", out)
    return Saved(out, small_world, small_prompts)


def load_mutated(path: Path, mutations, load, allowed: type[Exception] = SynthlocError) -> None:
    """Calls `load()` with `path` holding a mutated copy of its text;
    `allowed` is the one exception it may raise. The file is restored
    afterwards."""
    original = path.read_bytes()
    path.write_bytes(mutate(original.decode(), mutations).encode("utf-8", "surrogateescape"))
    try:
        load()
    except allowed:
        pass
    finally:
        path.write_bytes(original)


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_scores_raises_only_synthloc_errors(saved, mutations):
    load_mutated(
        saved.path / "consistency.csv",
        mutations,
        lambda: storage.load_scores(saved.path, saved.world, saved.prompts),
    )


@FUZZ
@given(st.integers(0, 1 << 16), INDEX, st.lists(MUTATION, min_size=1, max_size=3))
def test_load_variants_raises_only_synthloc_errors(saved, which_prompt, which_view, mutations):
    """One prompt's variant files, one of them mutated, read through
    `load_variants` with that prompt alone."""
    shift = saved.prompts.shifts[which_prompt % len(saved.prompts.shifts)]
    views = saved.world.map_views
    path = (
        saved.path / "features_variants" / storage.prompt_slug(shift.name)
        / f"{views[which_view % len(views)].id}.csv"
    )
    load_mutated(
        path, mutations, lambda: storage.load_variants(saved.path, saved.world, PromptSet([shift]))
    )


# A world load reads every file of the world, so each file gets fewer examples.
WORLD_FUZZ = settings(FUZZ, max_examples=25)

# views 0 and 16 of the small world are its first map and first query view
WORLD_FILES = ["meta.csv", "landmarks.csv", "views.csv", "pairs.csv", "features/0.csv", "features/16.csv"]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory, small_world):
    out = tmp_path_factory.mktemp("world")
    storage.save_world(small_world, out)
    return out


@pytest.mark.parametrize("name", WORLD_FILES)
@WORLD_FUZZ
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_load_world_raises_only_synthloc_errors(world_dir, name, mutations):
    load_mutated(world_dir / name, mutations, lambda: storage.load_world(world_dir))


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_prompts_raises_only_synthloc_errors(saved, mutations):
    load_mutated(saved.path / "prompts.csv", mutations, lambda: storage.load_prompts(saved.path))


@pytest.fixture(scope="module")
def other_files(tmp_path_factory):
    """A model file, a summary file and a config file with a key of every
    section."""
    out = tmp_path_factory.mktemp("other")
    storage.save_model(init_model(16, 8, 0), out / "model.csv")
    storage.save_summary(
        [
            {"protocol": protocol, "k": k, "condition": condition, "high": 12.5, "mid": 50.0, "low": 100.0}
            for protocol in ("ewb", "sfm")
            for k in (1, 5)
            for condition in ("all", "original", "at night")
        ],
        out / "summary.csv",
    )
    config = {
        "world": {"num_landmarks": 250, "descriptor_dim": 16, "noise": {"keypoint_sigma": 0.5}},
        "match": {"ratio": 0.8},
        "train": {"mode": "multi_k", "episodes": 2, "embedding_dim": 8, "sampling": "geometry_aware"},
        "ransac": {"iterations": 100, "min_inliers": 8},
        "world_seed": 3,
        "c_tau": 0.2,
        "seeds": [1, 2],
        "backend": "asmk",
        "eval_ks": [1, 5],
        "query_conditions": ["at night", "with rain"],
        "thresholds": {"high": [0.25, 2], "mid": [0.5, 5], "low": [5, 10]},
    }
    (out / "config.json").write_text(json.dumps(config, indent=1) + "\n")
    return out


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_model_raises_only_synthloc_errors(other_files, mutations):
    path = other_files / "model.csv"
    load_mutated(path, mutations, lambda: storage.load_model(path))


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_summary_raises_only_synthloc_errors(other_files, mutations):
    path = other_files / "summary.csv"
    load_mutated(path, mutations, lambda: storage.load_summary(path))


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_config_raises_only_config_errors(other_files, mutations):
    path = other_files / "config.json"
    load_mutated(path, mutations, lambda: load_config(str(path)), ConfigError)


def test_mutate_applies_each_kind():
    text = "a,b,c\n1,2,3\n4,5,6\n"
    assert mutate(text, [("drop", 1, 0, 1, "")]) == "a,b,c\n1,3\n4,5,6\n"
    assert mutate(text, [("duplicate", 2, 0, 0, "")]) == "a,b,c\n1,2,3\n4,4,5,6\n"
    assert mutate(text, [("swap", 1, 1, 0 + 3 * 2, "")]) == "a,b,c\n3,2,1\n4,5,6\n"
    assert mutate(text, [("swap", 1, 2, 0 + 3 * 1, "")]) == "a,b,c\n5,2,3\n4,1,6\n"
    assert mutate(text, [("replace", 1, 0, 2, "x")]) == "a,b,c\n1,2,x\n4,5,6\n"
    assert mutate(text, [("truncate", 2, 0, 3, "")]) == "a,b,c\n1,2,3\n4,5\n"
    invalid = mutate(text, [("invalid byte", 1, 0, 1, "")]).encode("utf-8", "surrogateescape")
    assert invalid == b"a,b,c\n1\xff,2,3\n4,5,6\n"
    assert mutate(text, [("drop line", 0, 0, 0, "")]) == "1,2,3\n4,5,6\n"
    assert mutate(text, [("repeat line", 1, 3, 0, "")]) == "a,b,c\n1,2,3\n4,5,6\n1,2,3\n"
