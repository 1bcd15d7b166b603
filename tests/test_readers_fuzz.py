"""Fuzzing the score and variant readers with mutated copies of real files:
whatever the mutation, a reader returns or raises a SynthlocError, never
another exception.

Each run draws new examples, and hypothesis replays the ones that failed
before; raise `max_examples` to search further."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synthloc import storage
from synthloc.errors import SynthlocError
from synthloc.variants import PromptSet

# What a mutation may write in place of a token: ids of other rows, numbers
# no file holds, and text that is not a number.
REPLACEMENTS = ["-1", "16", "1e19", "99999999999999999999", "1.5", "nan", "", "x", "at night"]

# Half the token picks fall in the first six columns, where the ids and
# counts are.
INDEX = st.one_of(st.integers(0, 5), st.integers(0, 1 << 16))

MUTATION = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "replace", "truncate", "drop line", "repeat line"]),
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
    replaces a token, truncates a line, or drops or repeats a line."""
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
        elif kind == "drop line":
            del lines[a]
            continue
        else:  # repeat line
            lines.insert(j % (len(lines) + 1), lines[a])
            continue
        lines[a] = ",".join(row)
    return "".join(ln + "\n" for ln in lines)


@pytest.fixture(scope="module")
def saved(tmp_path_factory, small_world, small_prompts, small_variants, small_scores):
    out = tmp_path_factory.mktemp("readers")
    storage.save_prompts(small_prompts, out)
    storage.save_variants(small_variants, out)
    storage.save_scores(small_scores, 0.2, "relative", out)
    return out


def load_mutated(path: Path, mutations, load) -> None:
    """Calls `load()` with `path` holding a mutated copy of its text; a
    SynthlocError is the one exception it may raise. The file is restored
    afterwards."""
    original = path.read_text()
    path.write_text(mutate(original, mutations))
    try:
        load()
    except SynthlocError:
        pass
    finally:
        path.write_text(original)


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_load_scores_raises_only_synthloc_errors(saved, small_world, small_prompts, mutations):
    load_mutated(
        saved / "consistency.csv",
        mutations,
        lambda: storage.load_scores(saved, small_world, small_prompts),
    )


@FUZZ
@given(st.integers(0, 1 << 16), INDEX, st.lists(MUTATION, min_size=1, max_size=3))
def test_load_variants_raises_only_synthloc_errors(
    saved, small_world, small_prompts, which_prompt, which_view, mutations
):
    """One prompt's variant files, one of them mutated, read through
    `load_variants` with that prompt alone."""
    shift = small_prompts.shifts[which_prompt % len(small_prompts.shifts)]
    views = small_world.map_views
    path = (
        saved / "features_variants" / storage.prompt_slug(shift.name)
        / f"{views[which_view % len(views)].id}.csv"
    )
    load_mutated(
        path, mutations, lambda: storage.load_variants(saved, small_world, PromptSet([shift]))
    )


def test_mutate_applies_each_kind():
    text = "a,b,c\n1,2,3\n4,5,6\n"
    assert mutate(text, [("drop", 1, 0, 1, "")]) == "a,b,c\n1,3\n4,5,6\n"
    assert mutate(text, [("duplicate", 2, 0, 0, "")]) == "a,b,c\n1,2,3\n4,4,5,6\n"
    assert mutate(text, [("swap", 1, 1, 0 + 3 * 2, "")]) == "a,b,c\n3,2,1\n4,5,6\n"
    assert mutate(text, [("swap", 1, 2, 0 + 3 * 1, "")]) == "a,b,c\n5,2,3\n4,1,6\n"
    assert mutate(text, [("replace", 1, 0, 2, "x")]) == "a,b,c\n1,2,x\n4,5,6\n"
    assert mutate(text, [("truncate", 2, 0, 3, "")]) == "a,b,c\n1,2,3\n4,5\n"
    assert mutate(text, [("drop line", 0, 0, 0, "")]) == "1,2,3\n4,5,6\n"
    assert mutate(text, [("repeat line", 1, 3, 0, "")]) == "a,b,c\n1,2,3\n4,5,6\n1,2,3\n"
