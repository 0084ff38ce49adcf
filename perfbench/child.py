"""One benchmark request in a fresh process.

    python3 perfbench/child.py [--trace] probe | search-n4 | <hairycube CLI args>
    python3 perfbench/child.py reference

`reference` runs the benchmark's own fixed pure-Python kernel without
importing the library and prints its time on stderr; run.py uses it to
gauge the host's speed next to each request.  Otherwise the child imports
`hairycube.cli`, reports on stderr the moment it is ready (the end of
set-up), then runs the request the way the `hairycube` console script
does.  `probe` stops after set-up.  `search-n4` calls
`duality.homs_for_variant(4, "relational", carrier_cap=81)` and prints the
map count and a digest of the maps.  With `--trace` the library's public
functions are wrapped (see spans.py).  When the request ends the process
writes to stderr its peak RSS, its CPU time and, if traced, the spans,
counts and any targets it could not wrap as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from itertools import product

READY = "perfbench-ready"
PEAK = "perfbench-peak-rss-kb"
CPU = "perfbench-cpu-s"
SPANS = "perfbench-spans"
REFERENCE = "perfbench-reference-s"
REFERENCE_CHUNKS = 6


def reference_chunk() -> int:
    """Fixed work in the library's idiom: close four 27-entry trit tables
    under pointwise meet and join, with tuples, sets and generators."""
    points = list(product(range(3), repeat=3))
    gens = [tuple(p[i] for p in points) for i in range(3)]
    gens.append(tuple(2 - p[0] for p in points))
    seen, frontier = set(gens), list(gens)
    while frontier and len(seen) < 400:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (
                    tuple(x if x <= y else y for x, y in zip(a, b)),
                    tuple(x if x >= y else y for x, y in zip(a, b)),
                ):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return len(seen)


def reference() -> int:
    t0 = time.perf_counter()
    sizes = {reference_chunk() for _ in range(REFERENCE_CHUNKS)}
    elapsed = time.perf_counter() - t0
    if sizes != {166}:
        print(f"reference kernel closed to {sizes}, not 166", file=sys.stderr)
        return 1
    print(f"{REFERENCE} {elapsed!r}", file=sys.stderr, flush=True)
    return 0


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss is no use here: it
    also counts the parent's pages that the child held before exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def search_n4() -> int:
    from hairycube.duality import homs_for_variant

    homs = homs_for_variant(4, "relational", carrier_cap=81)
    digest = hashlib.sha256()
    for m in homs.maps:
        digest.update(bytes(m))
    print(json.dumps({"count": len(homs), "sha256": digest.hexdigest()}))
    return 0


def main(argv: list[str]) -> int:
    if argv == ["reference"]:
        return reference()
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    from hairycube import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(f"{READY} {ready!r}", file=sys.stderr, flush=True)
    if argv == ["probe"]:
        return 0
    request = search_n4 if argv == ["search-n4"] else lambda: cli.main(argv)
    rec = None
    if trace:
        import spans

        rec = spans.Recorder()
        missing = spans.install(rec)
        request = rec.span("cli.main", request)
    code = request()
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)  # from interpreter start-up
    print(f"{PEAK} {peak_rss_kb()}", file=sys.stderr)
    print(f"{CPU} {usage.ru_utime + usage.ru_stime!r}", file=sys.stderr, flush=True)
    if rec is not None:
        dump = dict(rec.dump(), missing=missing)
        print(f"{SPANS} {json.dumps(dump)}", file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
