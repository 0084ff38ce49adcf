"""The benchmark's workloads: fixed requests with pinned outputs.

Every input is one of the paper's fixed objects, so a request's stdout is
the same bytes on every run; its sha256 and the count read out of it are
pinned here.  The seed only orders the requests of a round.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Request:
    """One fresh `hairycube` process: the child's argv and its pinned output."""

    name: str
    argv: tuple[str, ...]
    sha256: str
    count: int
    count_of: Callable[[bytes], int]


def passed_checks(out: bytes) -> int:
    payload = json.loads(out)
    return sum(c["passed"] for s in payload["suites"] for c in s["checks"])


def json_count(out: bytes) -> int:
    return json.loads(out)["count"]


def homs_text_count(out: bytes) -> int:
    head, *maps = out.decode("utf-8").splitlines()
    stated = int(re.search(r"(\d+) maps", head).group(1))
    return stated if stated == len(maps) else -1


VERIFY_ALL = Request(
    "verify-all",
    ("verify", "all", "--format", "json"),
    "b854bfca540e11808cfb5e03d10ad42f06b16c908f72e067f393bb1f4204a748",
    90,
    passed_checks,
)
HOMS_N3 = Request(
    "homs-n3",
    ("homs", "--n", "3"),
    "40c42c8fd517c87ace1fb1921b08100f466b83e7cd909f47511995d373e3d015",
    775,
    homs_text_count,
)
HOMS_N3_STRONG = Request(
    "homs-n3-strong",
    ("homs", "--n", "3", "--variant", "strong", "--format", "json"),
    "63e6e5600499c76790481d46a81c7a8dcfd6676c5d54125d7e7ce874f2dd70cb",
    775,
    json_count,
)
RENDER_CUBE = Request(
    "render-cube",
    ("render", "hairy-cube", "--n", "7", "--format", "json"),
    "3a24d4b611506979877a3bea6404376c47d0d3803950ed549a7a646686b83059",
    256,
    json_count,
)
SEARCH_N4 = Request(
    "search-n4",
    ("search-n4",),
    "7a7924d853efc070252eeecfea8c704d142913f9c0b63458adb59970beb851f9",
    319107,
    json_count,
)

# Workloads named in BENCHMARK.json, then those run by hand: one of their
# requests alone (25-45 s) outlasts a run's share of the benchmark's time
# budget, so a run could take only a single, noisy sample.
WORKLOADS: dict[str, tuple[Request, ...]] = {
    "verify-all": (VERIFY_ALL,),
    "homs-n3": (HOMS_N3,),
    "render-cube": (RENDER_CUBE,),
    "homs-n3-strong": (HOMS_N3_STRONG,),
    "search-n4": (SEARCH_N4,),
}
