"""`render.dumps` and the chunks the command line writes, against the json
module they replace: byte for byte."""

import argparse
import io
import json
import tracemalloc
from collections.abc import Iterator
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hairycube.cli import WRITE_BYTES, _write, _write_joined, main
from hairycube.duality import VARIANTS, homs_for_variant
from hairycube.posets import FinitePoset
from hairycube.render import (
    RENDERABLES,
    _poset_dot,
    _quote,
    dumps,
    hairy_cube_payload,
    homset_payload,
    json_chunks,
)
from hairycube.verify import reports_payload, run_suite


def _json(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters and non-ASCII, and any text at all;
# long texts too, with and without characters to escape, since a text that
# needs none is emitted as itself
TEXT = (
    st.text(st.sampled_from('ab"\\\x00\x07\x1f\x7f\n\t∧é '), max_size=6)
    | st.text(max_size=6)
    | st.text(st.sampled_from("0h1∧é "), min_size=7, max_size=3000)
    | st.text(st.sampled_from('0h1∧é "\\\x00\x1f\n'), min_size=7, max_size=300)
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


def _emitted(value) -> str:
    """What the command line's writer prints for value under --format json."""
    with redirect_stdout(io.StringIO()) as stdout:
        _write(argparse.Namespace(format="json", out=None), "", lambda: value, None)
    return stdout.getvalue()


@given(VALUES)
def test_dumps_matches_json_on_drawn_values(value):
    chunks = json_chunks(value)
    assert dumps(value) == "".join(chunks) == _emitted(value) == _json(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], [{}], "", 'say "∧"\\\n',
    float("nan"), float("-inf"), -0.0, 1e300, 10 ** 30, True, None,
])
def test_dumps_matches_json_on_edge_cases(value):
    chunks = json_chunks(value)
    assert dumps(value) == "".join(chunks) == _emitted(value) == _json(value)


def test_plain_strings_are_emitted_uncopied():
    plain, escaped = "0h1" * 729, 'say "∧"' * 100
    chunks = list(json_chunks({"a": plain, "b": [plain, escaped], "c": escaped}))
    assert sum(c is plain for c in chunks) == 2
    assert not any(c is escaped for c in chunks)
    # the cube's table texts leave as the tables' own str() memos
    payload = hairy_cube_payload(4)
    emitted = {id(c) for c in json_chunks(payload)}
    assert all(id(node["table"]) in emitted for node in payload["nodes"])


def test_the_largest_document_streams_to_the_writer():
    payload = hairy_cube_payload(7)
    assert isinstance(json_chunks(payload), Iterator)
    tracemalloc.start()
    try:
        _write_joined(lambda piece: None, json_chunks(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pieces reach the writer 64 at a time as they are made: a list of the
    # document's 9,360 pieces, made before the first write, peaks near 600 KiB
    assert peak < 384 * 1024


# chunk texts with characters of one to four UTF-8 bytes, some longer than a
# write, and runs of hundreds of short ones
SHORT = st.text(st.sampled_from("a0\n∧é\U0001d400"), max_size=40)
CHUNKS = st.lists(
    SHORT
    | st.tuples(st.text(st.sampled_from("ah∧\U0001d400"), min_size=1, max_size=8),
                st.integers(WRITE_BYTES // 8, WRITE_BYTES)).map(lambda c: (c[0] * c[1])[:c[1]])
    | st.just("1" * (3 * WRITE_BYTES + 1)),
    max_size=12,
) | st.lists(SHORT, min_size=60, max_size=1500)


@given(CHUNKS)
def test_writes_are_full_pieces_of_the_joined_chunks(chunks):
    writes = []
    _write_joined(writes.append, chunks)
    assert "".join(writes) == "".join(chunks)
    sizes = [len(w.encode("utf-8")) for w in writes]
    assert all(0 < size <= WRITE_BYTES for size in sizes)
    # each write but the last is full, but for a character cut off its end
    assert all(size > WRITE_BYTES - 4 for size in sizes[:-1])


def test_dot_labels_escape_backslashes_before_quotes():
    assert _quote("p1∧h") == '"p1∧h"'
    assert _quote('say "hi"') == r'"say \"hi\""'
    # a trailing backslash would otherwise escape the closing quote
    assert _quote("ends\\") == r'"ends\\"'
    assert _quote('\\"') == r'"\\\""'
    poset = FinitePoset.from_masks(["x", "y"], [1, 3])
    lines = _poset_dot("t", poset, ["a\\", 'b"'])
    assert r'  n0 [label="a\\"];' in lines and r'  n1 [label="b\""];' in lines


# the targets and sizes scripts/render_figures.py writes
FIGURES = [("chi", 1), ("chi", 2), ("congruences", None), ("hairy-cube", 1),
           ("hairy-cube", 2), ("hairy-cube", 3), ("subalgebras", None)]


@pytest.mark.parametrize("target, n", FIGURES)
def test_dumps_matches_json_on_render_payloads(target, n):
    payload_fn, _, needs_n = RENDERABLES[target]
    assert needs_n == (n is not None)
    payload = payload_fn(n) if needs_n else payload_fn()
    assert dumps(payload) == _json(payload)


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("target, n", FIGURES)
def test_out_file_holds_the_stdout_bytes(target, n, fmt, tmp_path, capsys):
    payload_fn, dot_fn, needs_n = RENDERABLES[target]
    fn_args = (n,) if needs_n else ()
    argv = ["render", target, "--format", fmt, *(["--n", str(n)] if needs_n else [])]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    if fmt == "json":
        payload = payload_fn(*fn_args)
        assert "".join(json_chunks(payload)) == dumps(payload) == stdout
    else:
        assert "".join(line + "\n" for line in dot_fn(*fn_args)) == stdout
    assert main([*argv, "--out", str(tmp_path)]) == 0
    (written,) = tmp_path.iterdir()
    assert capsys.readouterr().out == f"{written}\n"
    assert written.read_bytes() == stdout.encode("utf-8")


def test_figures_cover_every_renderable():
    assert {target for target, _ in FIGURES} == set(RENDERABLES)


def test_dumps_matches_json_on_reports_and_hom_sets():
    report = reports_payload(run_suite("all"))
    assert dumps(report) == _json(report)
    for name in VARIANTS:
        homs = homset_payload(homs_for_variant(2, name), name, "search")
        assert dumps(homs) == _json(homs)


@pytest.mark.parametrize("key", [3, 2.5, True, None, (1, 2)])
def test_dumps_refuses_keys_that_are_not_strings(key):
    # json would write the scalar keys as text ("3", "true", ...); dumps does
    # not, and no payload needs it
    with pytest.raises(TypeError):
        dumps({"ok": [{key: 0}]})
