"""`render.dumps` and the chunks the command line writes, against the json
module they replace: byte for byte."""

import argparse
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hairycube.cli import _write, main
from hairycube.duality import VARIANTS, homs_for_variant
from hairycube.render import RENDERABLES, dumps, homset_payload, json_chunks
from hairycube.verify import reports_payload, run_suite


def _json(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters and non-ASCII, and any text at all
TEXT = st.text(st.sampled_from('ab"\\\x00\x07\x1f\x7f\n\t∧é '), max_size=6) | st.text(max_size=6)
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
