"""Byte-identity guard: sha256 digests of fast CLI outputs.

The digests were taken from the command line before the tables moved to
bit planes and must never be regenerated from changed code: a refactor
that changes any exported byte fails here.  Larger outputs (homs --n 3,
verify all, render hairy-cube --n 7) are pinned by the benchmark.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "homs --n 2 --format json --variant relational":
        "22b898fdd0c2c4f351e2e04357436ca5178c72305b03b9f3157706cd5f9578c3",
    "homs --n 2 --format json --variant strong":
        "5c06d4de7a8ad66da6283261f524eee26eaee8e3e28e970e2739798a8753c085",
    "homs --n 2 --format json --variant strong-min":
        "863441ba35b4dba8632112fb7b82b1b71fecff370687799842e6ea28665b4e32",
    "homs --n 2 --format json --variant optimal-strong":
        "ac312a1ba26346b0f50e60ab2cc98f8683d51dfff846a44fd6f0db1029f42b99",
    "render hairy-cube --n 4 --format json":
        "3f4dfebbaa0dfb773c864eec16962d3217cacbf4498747dc75d3f2f6caa02333",
    "render hairy-cube --n 4 --format dot":
        "17a6018027010c4a1faf3905c1ea0857988f80653636a51ee32c05639161f878",
    "render chi --n 2 --format dot":
        "6b8229e74b38c13699969885a59c4330950dbe7f5784ba2f5a7f451e07bac3ad",
    "verify hairy-cube --format json":
        "c1060b670bd713bef237ee02d4e630c6251862582f3228819579250dcff53032",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_output_matches_pinned_digest(command):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAIRYCUBE_")}
    result = subprocess.run(
        [sys.executable, "-m", "hairycube.cli", *command.split()],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED[command]
