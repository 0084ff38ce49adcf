#!/usr/bin/env python3
"""Write the standard JSON and DOT exports into a directory (default out/).

Covers the subalgebra lattice, the congruence lattice, the hom-set
lattices for powers 1 and 2, and the cube-with-hairs posets for
dimensions 1 to 3.  Exit status is 2 when a file cannot be written.
"""

import argparse
import sys
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hairycube.cli import _emit  # noqa: E402
from hairycube.render import RENDERABLES, json_chunks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    jobs = []
    for target, (payload_fn, dot_fn, needs_n) in sorted(RENDERABLES.items()):
        stem = target.replace("-", "_")
        if not needs_n:
            jobs.append((stem, payload_fn, dot_fn, ()))
        elif target == "chi":
            jobs.extend((f"{stem}_n{n}", payload_fn, dot_fn, (n,)) for n in (1, 2))
        else:
            jobs.extend((f"{stem}_n{n}", payload_fn, dot_fn, (n,)) for n in (1, 2, 3))

    # the writer `hairycube render --out` uses: chunks, never a joined file
    try:
        for stem, payload_fn, dot_fn, fn_args in jobs:
            _emit(json_chunks(payload_fn(*fn_args)), args.out, f"{stem}.json")
            _emit((line + "\n" for line in dot_fn(*fn_args)), args.out, f"{stem}.dot")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
