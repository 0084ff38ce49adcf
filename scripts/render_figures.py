#!/usr/bin/env python3
"""Write the standard JSON and DOT exports into a directory (default out/).

Covers the subalgebra lattice, the congruence lattice, the hom-set
lattices for powers 1 and 2, and the cube-with-hairs posets for
dimensions 1 to 3, one `hairycube render` command per file.  It stops at
the first command that fails; exit status is 2 when a file cannot be
written.
"""

import argparse
import sys
from itertools import product
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hairycube import cli  # noqa: E402
from hairycube.render import RENDERABLES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()

    for target, (_, _, needs_n) in sorted(RENDERABLES.items()):
        sizes = ((1, 2) if target == "chi" else (1, 2, 3)) if needs_n else (None,)
        for n, fmt in product(sizes, ("json", "dot")):
            argv = ["render", target, "--format", fmt, "--out", str(args.out)]
            status = cli.main(argv + ([] if n is None else ["--n", str(n)]))
            if status:
                return status
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
