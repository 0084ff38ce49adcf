#!/usr/bin/env python3
"""Run every verification suite and print one line per check.

Exit status is 1 when any check fails and 2 for a bad --n.  Pass --json
for the full report with certificates.  This runs `hairycube verify all`.
"""

import argparse
import sys
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hairycube import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument(
        "--n", type=int, default=None, help="cap the power where a suite scales"
    )
    args = parser.parse_args()
    argv = ["verify", "all", "--format", "json" if args.json else "text"]
    return cli.main(argv + ([] if args.n is None else ["--n", str(args.n)]))


if __name__ == "__main__":
    raise SystemExit(main())
