"""The public namespace: every name in `__all__` resolves; the library
reads no environment, so its output depends on its arguments alone; importing
the command line stays cheap; the value classes compare by value and are
frozen."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hairycube
from hairycube.core import ELEMENTS, H, ONE, ZERO, TritTable
from hairycube.cube import eta, eval_polynomial, polynomial_form
from hairycube.duality import ftc_check
from hairycube.homsets import HomSet, StructuredSpace
from hairycube.relations import DIAGONAL, R1, BinaryRelation, PartialOp, is_subuniverse

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "hairycube").glob("*.py"))


def test_all_names_are_attributes():
    missing = [name for name in hairycube.__all__ if not hasattr(hairycube, name)]
    assert missing == []


@pytest.mark.parametrize(
    "fn",
    [TritTable, StructuredSpace, eta, polynomial_form, eval_polynomial, ftc_check, is_subuniverse],
    ids=lambda fn: fn.__name__,
)
def test_sizes_are_read_off_the_inputs(fn):
    """No size parameter: the arity or width is that of the entries, points,
    table, epsilon or tuples given."""
    assert {"n", "k", "arity"}.isdisjoint(inspect.signature(fn).parameters)


def test_the_library_reads_no_environment():
    assert SOURCES
    readers = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every command pays for the modules `import hairycube.cli` loads, and
    `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`."""
    run = _run("import sys, hairycube.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_importing_the_cli_registers_every_library_module():
    """Tracing wraps functions found through `sys.modules` after
    `import hairycube.cli`, so every module must be there, loaded or not."""
    run = _run("import sys, hairycube.cli; print(sorted(m for m in sys.modules if m.startswith('hairycube')))")
    modules = sorted("hairycube" if p.stem == "__init__" else f"hairycube.{p.stem}" for p in SOURCES)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", f"{modules}\n")


BASE = {f"hairycube{m}" for m in ("", ".cli", ".core", ".posets")}
HOMS = BASE | {f"hairycube.{m}" for m in ("relations", "homsets", "duality", "render")}
EVERY = HOMS | {"hairycube.cube", "hairycube.verify"}


@pytest.mark.parametrize("argv, executed", [
    # n = 3 glues the cube from its slices (n = 1 is the base case)
    (["render", "hairy-cube", "--n", "3"], BASE | {"hairycube.cube", "hairycube.render"}),
    (["homs", "--n", "1"], HOMS),
    (["verify", "barops"], EVERY - {"hairycube.render"}),
    (["verify", "barops", "--format", "json"], EVERY),
    (["homs", "--n", "3"], HOMS),  # the clone-filter path
    (["render", "chi", "--n", "2"], BASE | {f"hairycube.{m}" for m in (
        "relations", "homsets", "cube", "render")}),
    (["render", "subalgebras"], BASE | {"hairycube.relations", "hairycube.render"}),
])
def test_a_command_executes_only_the_modules_it_runs(argv, executed):
    """A module registered but never used is still a lazy module, whose type
    is not ModuleType: it was neither compiled nor run.  No request loads
    `json`, which would be listed too."""
    code = ("import sys, types; from hairycube.cli import main; "
            f"status = main({argv!r}); "
            "print(status, sorted(name for name, m in sys.modules.items() "
            "if name.startswith(('hairycube', 'json')) and type(m) is types.ModuleType), "
            "file=sys.stderr)")
    run = _run(code)
    assert (run.returncode, run.stderr) == (0, f"0 {sorted(executed)}\n")


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from hairycube import *", namespace)
    assert set(hairycube.__all__) <= set(namespace)
    assert set(hairycube.__all__) <= set(dir(hairycube))


def test_text_requests_do_not_load_json():
    """`json` (whose decoder compiles regular expressions on import) is
    loaded by no request: JSON is written by `render.json_chunks` alone."""
    run = _run("import sys; from hairycube.cli import main; main(['homs', '--n', '1']); "
               "main(['render', 'hairy-cube', '--n', '3', '--format', 'json']); "
               "main(['verify', 'barops', '--format', 'json']); "
               "print(sorted({'json', 'json.decoder'} & set(sys.modules)), file=sys.stderr)")
    assert (run.returncode, run.stderr) == (0, "[]\n")
    assert run.stdout.startswith("hom-set: arity 1")


def test_only_core_reads_the_plane_translations():
    """The byte translations between entry codes and planes have one home:
    every other module reads and writes planes through core's functions."""
    names = {"_GE_H_BIT", "_GE_1_BIT", "_HEX_CODES"}
    users = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and names & {alias.name for alias in node.names}
        or isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert users == []


def test_only_core_reads_the_table_text_memo():
    """`TritTable._text` is core's memo: `assemble`, next to the class, glues
    the memos of its slices, and every other module reads a table's text
    through `str()`."""
    users = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_text"
    ]
    assert users == []


def _diagonal_op(name: str) -> PartialOp:
    return PartialOp.from_graph(name, DIAGONAL, [(e, e, e) for e in ELEMENTS])


def _value_cases():
    """Per value class: two equal instances built apart, an unequal one and
    a field name."""
    space = StructuredSpace.power(1)
    return [
        (TritTable.from_string("0h1"), TritTable((0, 1, 2)), TritTable.from_string("0hh"), "ge_h"),
        (BinaryRelation(5), BinaryRelation.from_pairs([(ZERO, ZERO), (ZERO, ONE)]),
         BinaryRelation(6), "mask"),
        (_diagonal_op("f"), _diagonal_op("f"), _diagonal_op("g"), "values"),
        (StructuredSpace(((ZERO,), (H,), (ONE,)), (R1,)), StructuredSpace.power(1, (R1,)),
         space, "relations"),
        (HomSet(space, (b"\0\1\2",)), HomSet(StructuredSpace.power(1), (b"\0\1\2",)),
         HomSet(StructuredSpace.power(1, (R1,)), (b"\0\1\2",)), "maps"),
    ]


@pytest.mark.parametrize(
    "case", range(5), ids=["TritTable", "BinaryRelation", "PartialOp", "StructuredSpace", "HomSet"]
)
def test_value_classes_compare_by_value_and_are_frozen(case):
    a, b, other, field = _value_cases()[case]
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != other and not a == other
    assert a != getattr(a, field) and a != (getattr(a, field),)
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before and a == b
    assert repr(a).startswith(type(a).__name__) and ", _" not in repr(a)


def test_values_of_different_classes_are_never_equal():
    class Twin(BinaryRelation):
        pass

    assert Twin(5) != BinaryRelation(5) and BinaryRelation(5) != Twin(5)


def test_relations_order_by_mask():
    rels = [BinaryRelation(m) for m in (6, 0, 5)]
    assert sorted(rels) == [BinaryRelation(m) for m in (0, 5, 6)]
    assert BinaryRelation(5) < BinaryRelation(6) and BinaryRelation(6) > BinaryRelation(5)
    assert BinaryRelation(5) <= BinaryRelation(5) >= BinaryRelation(5)
    assert repr(BinaryRelation(5)) == "BinaryRelation(mask=5)"
    with pytest.raises(TypeError):
        BinaryRelation(5) < 6


def test_value_classes_keep_their_validation():
    with pytest.raises(ValueError, match="mask 512 out of range"):
        BinaryRelation(512)
    with pytest.raises(ValueError, match="definedness at \\(0,0\\) disagrees with the domain"):
        PartialOp("f", DIAGONAL, (None,) * 9)
    with pytest.raises(ValueError, match="one slot per pair"):
        PartialOp("f", DIAGONAL, (ZERO, H, ONE))
    with pytest.raises(ValueError, match="canonically sorted"):
        StructuredSpace(((ONE,), (ZERO,)))
