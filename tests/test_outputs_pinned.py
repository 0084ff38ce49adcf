"""Byte-identity guard: sha256 digests of CLI outputs.

The digests were taken from the command line before the tables moved to
bit planes (the subalgebra, congruence, chi JSON and verify-all digests
before the lattice code was merged into one class; the arity-3 chi and
dimension-7 cube digests before every order was built from inclusion
masks; homs --n 3 when its pin moved over from the benchmark; the
strong-min and optimal-strong homs --n 3 JSON before the clone-filter
checked the whole clone in one pass; the dimension-7 cube DOT before the
cube's order was glued from its slices) and must never be regenerated from
changed code: a refactor that changes any exported byte fails here.  The
arity-3 chi lattice (775 tables) and the dimension-7 hairy cube (256
elements) are the pinned orders with hundreds of elements; they add about
2 s.  homs --n 3 adds about 0.2 s for each of its four variants; the
strong digest is read from the benchmark's homs-n3-strong request.  The benchmark pins verify all, homs --n 3 and the
dimension-7 cube with the same digests.
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
    "render subalgebras --format json":
        "6297206a3830e5510161c831ae4bf455a7281bc61b641f5a57d281ab14fd58cc",
    "render subalgebras --format dot":
        "df2e06e91057c601eb2167c119f7382833a4a464c0dca681cefc9961a4af9d29",
    "render congruences --format json":
        "5f1a2d95814a25810ec9062246f2aced723cfd9fa0d251e1d5b8461bdf98fe0d",
    "render congruences --format dot":
        "0bb5048c3c2b4128bafe9a3a5b897402cb0fef37cb30df0e6e368ab6f633fb20",
    "render chi --n 2 --format json":
        "c9c4e9c029967d7233c4fc14fecbfdc1d1fd0b79cb9b37a3b81d066b83a2729b",
    "verify all --format json":
        "b854bfca540e11808cfb5e03d10ad42f06b16c908f72e067f393bb1f4204a748",
    "render chi --n 3 --format json":
        "487ac90c5d4a55691ae22416e4e1c54b9bc139e01904683389c1ea4a67134764",
    "render chi --n 3 --format dot":
        "21de089186fbbda60065540056c05b653093ccd66f3079d3697c64715cef180e",
    "render hairy-cube --n 7 --format json":
        "3a24d4b611506979877a3bea6404376c47d0d3803950ed549a7a646686b83059",
    "render hairy-cube --n 7 --format dot":
        "5364e4e8d1ebfa9273990f2d9b72e209b79b5a7cdc1ae8b3e3520b449b59dd3f",
    "homs --n 3":
        "40c42c8fd517c87ace1fb1921b08100f466b83e7cd909f47511995d373e3d015",
    "homs --n 3 --format json --variant strong-min":
        "47eb174d219a825544d67954683ac542056f8cf0508f538011ade40998d88c45",
    "homs --n 3 --format json --variant optimal-strong":
        "07751cdd51c075a72dfc0ace80bdbdb0aa1b46ad06b6b31397b6cf2671ea55ec",
}


def _stdout(argv, **variables):
    """The command's stdout, run with the package's source directory on the
    path and any extra environment variables."""
    result = subprocess.run(
        [sys.executable, "-m", "hairycube.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **variables),
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_output_matches_pinned_digest(command):
    assert hashlib.sha256(_stdout(command.split())).hexdigest() == PINNED[command]


def test_homs_n3_ignores_the_old_cap_variables():
    # The library reads no environment: variables named like caps change
    # neither the route nor a byte.
    out = _stdout(["homs", "--n", "3"], HAIRYCUBE_CARRIER_CAP="27",
                  HAIRYCUBE_CLONE_ARITY_CAP="2")
    assert hashlib.sha256(out).hexdigest() == PINNED["homs --n 3"]


def test_strong_homs_n3_matches_the_benchmark_pin(workloads):
    # homs --n 3 --variant strong --format json, pinned by the benchmark's
    # hand-run homs-n3-strong request and read from there.
    strong = workloads.HOMS_N3_STRONG
    assert strong.argv == ("homs", "--n", "3", "--variant", "strong", "--format", "json")
    out = _stdout(strong.argv)
    assert hashlib.sha256(out).hexdigest() == strong.sha256
    assert strong.count_of(out) == strong.count == 775
