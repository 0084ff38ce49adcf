"""End-to-end checks of the command line interface and the scripts."""

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hairycube.cli import _homs, _write, build_parser, main
from hairycube.duality import VARIANTS, homs_for_variant
from hairycube.render import RENDERABLES
from hairycube.verify import SUITES

from test_outputs_pinned import PINNED

UNARY = ["000", "0hh", "0h1", "hhh", "hh1", "11h", "111"]

ROOT = Path(__file__).resolve().parents[1]


def cli_env():
    """The package's source directory on the path, whatever the caller's."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hairycube.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
    )


def test_homs_text_default(capsys):
    assert main(["homs"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hom-set: arity 1, variant relational, 7 maps (search)"
    assert lines[1:] == UNARY


def test_homs_json(capsys):
    assert main(["homs", "--n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["object"] == "hom-set"
    assert payload["arity"] == 2
    assert payload["method"] == "search"
    assert payload["count"] == 35 == len(payload["maps"])
    assert len(set(payload["maps"])) == 35


def test_homs_clone_filter_beyond_cap(capsys):
    assert main(["homs", "--n", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "clone-filter"
    assert payload["count"] == 775


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_clone_filter_matches_search_at_arity_three(name, monkeypatch):
    # The n = 3 filter tests all 775 tables in one pass; a loop of one-map
    # preserves_* calls would raise here.
    from hairycube import cli, duality, homsets

    def refuse(*args):
        raise AssertionError("one-map check called")

    for module in (cli, duality, homsets):
        for check in ("preserves_relation", "preserves_partial_op"):
            monkeypatch.setattr(module, check, refuse, raising=False)
    homset, method = _homs(3, name)
    monkeypatch.undo()
    assert method == "clone-filter"
    assert homset.maps == homs_for_variant(3, name, carrier_cap=27).maps
    assert len(homset.maps) == 775


def test_variants_give_same_maps(capsys):
    seen = set()
    for name in ("relational", "strong", "strong-min", "optimal-strong"):
        assert main(["homs", "--n", "2", "--variant", name, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        seen.add(tuple(sorted(payload["maps"])))
    assert len(seen) == 1


def test_verify_suite_passes(capsys):
    assert main(["verify", "barops"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_json(capsys):
    assert main(["verify", "congruences", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["object"] == "verification-report"
    suites = {s["suite"] for s in payload["suites"]}
    assert suites == {"congruences"}
    assert all(c["passed"] for s in payload["suites"] for c in s["checks"])


def test_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(capsys):
    assert main(["homs", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap exceeded" in captured.err


def test_render_cube_dimension_cap_exit_code(capsys):
    assert main(["render", "hairy-cube", "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap exceeded" in captured.err


def test_refused_render_writes_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["render", "hairy-cube", "--n", "8", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap exceeded" in captured.err
    assert not out.exists()


class WriteSizes(io.StringIO):
    """A stdout that records the size in bytes of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text.encode("utf-8")))
        return super().write(text)


def test_largest_render_is_written_in_small_chunks(monkeypatch):
    # 3.1 MB of JSON: written whole, it would be held once as a str and once
    # more encoded before the first byte left
    stdout = WriteSizes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["render", "hairy-cube", "--n", "7", "--format", "json"]) == 0
    assert max(stdout.sizes) <= 64 * 1024
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    assert digest == PINNED["render hairy-cube --n 7 --format json"]


def test_largest_render_leaves_in_few_16_kb_writes(monkeypatch):
    # per-chunk writes would make thousands; joined, all but the last are full
    stdout = WriteSizes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["render", "hairy-cube", "--n", "7", "--format", "json"]) == 0
    assert sum(stdout.sizes) == 3_125_873
    assert max(stdout.sizes) <= 16 * 1024
    assert len(stdout.sizes) <= math.ceil(3_125_873 / 16_384) + 1


def test_negative_arity_exit_code(capsys):
    assert main(["homs", "--n", "-1"]) == 2
    assert capsys.readouterr().err == "error: arity must be nonnegative\n"


@pytest.mark.parametrize(
    "argv", [["verify", "birkhoff", "--n", "0"], ["verify", "all", "--n", "-3"]]
)
def test_verify_power_cap_below_one_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the power cap n must be at least 1, got {argv[-1]}\n"


def test_verify_power_cap_one_runs_its_check(capsys):
    assert main(["verify", "birkhoff", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS  birkhoff/downset-count-n1:")
    assert lines[-1] == "1/1 checks passed"


def test_render_json_targets(capsys):
    for target, n_args in (
        ("chi", ["--n", "1"]),
        ("subalgebras", []),
        ("congruences", []),
        ("hairy-cube", ["--n", "2"]),
    ):
        assert main(["render", target, *n_args]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["nodes"]


def test_render_dot(capsys):
    assert main(["render", "hairy-cube", "--n", "1", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "->" in out
    assert out.endswith("}\n")


def test_out_directory_writes_files(tmp_path, capsys):
    assert main(["homs", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.strip()
    target = tmp_path / "homs_n1_relational.txt"
    assert printed == str(target)
    assert target.read_text(encoding="utf-8").splitlines()[1:] == UNARY

    assert main(["render", "chi", "--n", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "chi_n1.json").exists()


@pytest.mark.parametrize("argv, name", [
    (["homs", "--n", "2", "--format", "json"], "homs_n2_relational.json"),
    (["homs", "--variant", "strong"], "homs_n1_strong.txt"),
    (["verify", "barops", "--format", "json"], "verify_barops.json"),
    (["verify", "congruences"], "verify_congruences.txt"),
    (["render", "hairy-cube", "--n", "2"], "hairy_cube_n2.json"),
    (["render", "chi", "--n", "1", "--format", "dot"], "chi_n1.dot"),
    (["render", "congruences"], "congruences.json"),
    (["render", "subalgebras", "--format", "dot"], "subalgebras.dot"),
])
def test_out_writes_what_stdout_shows_to_one_named_file(argv, name, tmp_path, capsys):
    """Each command and format: --out writes the bytes it prints without
    --out to one file, named after the request, and prints that path."""
    status = main(argv)
    shown = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path)]) == status == 0
    assert capsys.readouterr().out == f"{tmp_path / name}\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == shown.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["render", "chi", "--n", "1"],
    ["verify", "barops"],
])
def test_out_naming_a_file_is_an_error(argv, tmp_path, capsys):
    # exit 2, not the 1 that verify gives when a check fails
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert taken.read_text(encoding="utf-8") == "kept\n"


def test_an_error_while_writing_a_file_leaves_no_file(tmp_path):
    """The document is made as it is written: a failure part way leaves
    neither the named file nor the temporary one it is written under."""
    args = argparse.Namespace(format="json", out=tmp_path)
    with pytest.raises(TypeError):
        _write(args, "x", lambda: {"ok": [{3: 0}]}, None)
    assert list(tmp_path.iterdir()) == []


# sha256 of what the parser prints (help on stdout, usage errors on stderr)
# at a width of 80 columns: the choices are read only for the command named,
# and the text must not show it.
PARSER_TEXT = {
    ("--help",): "97662ff465de5f6c845eb8f96a7275457021e86725c7c66c40b60526afb55cad",
    ("homs", "--help"): "95d3f51bee42a40216051c052075e07973d3d742543ab1feb517607e67be8b12",
    ("verify", "--help"): "d64afe468f9c65392856d38eeb85e5bf398d432c4a5ba5b62a9fa28ca4a45163",
    ("render", "--help"): "4448d3ebb8331d6923c784d0f870e32a3475a72afb2d78e372380ec56a484c07",
    ("verify", "nosuch"): "db421109ad239f81bc9eafece0af72513ba14553a71912889f29a19ef0c40f0f",
    ("homs", "--variant", "nosuch"):
        "2dff52439c5d3773f9053f1726c34be710a546bda6fef298d11ee208a70d03ae",
}


@pytest.mark.parametrize("argv", PARSER_TEXT, ids=" ".join)
def test_parser_text_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    text = captured.out if exc.value.code == 0 else captured.err
    assert exc.value.code == (0 if "--help" in argv else 2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PARSER_TEXT[argv]


@pytest.mark.parametrize("command, dest, choices", [
    ("homs", "variant", sorted(VARIANTS)),
    ("verify", "suite", sorted(SUITES) + ["all"]),
    ("render", "target", sorted(RENDERABLES)),
])
def test_each_command_offers_its_registry_as_choices(command, dest, choices):
    parser = build_parser([command])
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (action,) = (a for a in commands.choices[command]._actions if a.dest == dest)
    assert action.choices == choices


def test_a_reader_that_leaves_early_is_not_an_error():
    """`… | head -c 1`: the 3.1 MB export is far more than a pipe holds, so
    the writer meets the closed pipe.  It says nothing and exits 141, the
    status a shell gives a process killed by SIGPIPE."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hairycube.cli", "render", "hairy-cube", "--n", "7",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(), cwd=ROOT,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_output_is_byte_identical_across_runs():
    args = ("render", "hairy-cube", "--n", "2", "--format", "dot")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # something was actually produced


# What the console script that an install generates does: import the declared
# `module:attr` target, name the program after the script, exit with its result.
CONSOLE_LAUNCHER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
target = getattr(importlib.import_module(module), attr)
sys.argv = ["hairycube", *sys.argv[2:]]
sys.exit(target())
"""


def declared_console_target():
    """The `hairycube` entry of `[project.scripts]` in `pyproject.toml`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hairycube"]


def test_console_entry_matches_module_invocation():
    args = ("homs", "--n", "1", "--format", "json")
    by_module = run_cli(*args)
    runs = [
        [sys.executable, "-c", CONSOLE_LAUNCHER, declared_console_target(), *args]
    ]
    # An installed checkout also has the generated script on PATH.
    installed = shutil.which("hairycube")
    if installed:
        runs.append([installed, *args])
    for argv in runs:
        by_entry = subprocess.run(
            argv, capture_output=True, text=True, env=cli_env(), cwd=ROOT
        )
        assert by_module.returncode == by_entry.returncode == 0, by_entry.stderr
        assert by_module.stdout == by_entry.stdout


def script_env():
    """No PYTHONPATH: the scripts must find the package in a fresh checkout."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def test_run_all_checks_script():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py")],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_run_all_checks_script_json_is_byte_equal_to_verify_all():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py"), "--json"],
        capture_output=True,
        env=script_env(),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == PINNED["verify all --format json"]


def test_run_all_checks_script_refuses_a_power_cap_below_one(capsys):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py"), "--n", "0"],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert main(["verify", "all", "--n", "0"]) == 2
    assert proc.stderr == capsys.readouterr().err


def test_render_figures_script(tmp_path, capsys):
    figures, by_cli = tmp_path / "figures", tmp_path / "cli"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "render_figures.py"),
            "--out",
            str(figures),
        ],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = sorted(p.name for p in figures.iterdir())
    assert "hairy_cube_n3.dot" in written
    assert "subalgebras.json" in written
    assert len(written) == 14
    # every file again through `render`, named by the CLI from its arguments
    for name in written:
        stem, fmt = name.rsplit(".", 1)
        base, _, n = stem.partition("_n")
        argv = ["render", base.replace("_", "-"), "--format", fmt, "--out", str(by_cli)]
        assert main(argv + (["--n", n] if n else [])) == 0
    capsys.readouterr()
    assert sorted(p.name for p in by_cli.iterdir()) == written
    for name in written:
        assert (figures / name).read_bytes() == (by_cli / name).read_bytes(), name


def test_render_figures_script_refuses_an_out_file(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "render_figures.py"), "--out", str(taken)],
        capture_output=True,
        text=True,
        env=script_env(),
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert taken.read_text(encoding="utf-8") == "kept\n"
