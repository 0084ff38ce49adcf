#!/usr/bin/env python3
"""Run every verification suite and print one line per check.

Exit status is 1 when any check fails and 2 for a bad --n.  Pass --json
for the full report with certificates.
"""

import argparse
import sys
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hairycube.cli import _emit  # noqa: E402
from hairycube.render import json_chunks  # noqa: E402
from hairycube.verify import report_lines, reports_payload, run_suite  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument(
        "--n", type=int, default=None, help="cap the power where a suite scales"
    )
    args = parser.parse_args()
    try:
        reports = run_suite("all", args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the writer `hairycube verify` uses, to stdout: chunks, never one string
    if args.json:
        _emit(json_chunks(reports_payload(reports)), None, "")
    else:
        _emit((line + "\n" for line in report_lines(reports)), None, "")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
