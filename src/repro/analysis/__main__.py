"""CLI entry point: ``python -m repro.analysis [options] [paths...]``.

Exit codes: ``0`` clean (or everything suppressed/baselined), ``1``
unsuppressed findings, ``2`` usage errors (missing paths, bad baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.core import run_analysis


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analyzer (rules R1, R3, R5, R6).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline JSON; findings with listed fingerprints do not fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=".",
        help="project root for relative paths and the README check (default: cwd)",
    )
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    paths = []
    for raw in args.paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            print(f"error: path does not exist: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    report = run_analysis(paths, root)

    if args.write_baseline:
        write_baseline(Path(args.baseline), report.findings)
        print(
            f"wrote baseline with {len(report.findings)} finding(s) to {args.baseline}"
        )
        return 0

    accepted = set()
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"error: baseline not found: {args.baseline}", file=sys.stderr)
            return 2
        try:
            accepted = load_baseline(baseline_path)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    failing = [f for f in report.findings if f.fingerprint not in accepted]
    baselined = [f for f in report.findings if f.fingerprint in accepted]

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in failing],
                    "baselined": [f.as_dict() for f in baselined],
                    "suppressed": [f.as_dict() for f in report.suppressed],
                    "files_checked": report.files_checked,
                },
                indent=2,
            )
        )
    else:
        for finding in failing:
            print(finding.render())
        summary = (
            f"{report.files_checked} file(s) checked: {len(failing)} finding(s), "
            f"{len(baselined)} baselined, {len(report.suppressed)} suppressed inline"
        )
        print(summary)

    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
