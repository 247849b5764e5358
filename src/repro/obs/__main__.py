"""``python -m repro.obs`` — timeline tooling over metrics artifacts.

Subcommands:

* ``export-trace METRICS.json -o trace.json`` — Chrome trace-event JSON
  from a metrics artifact; open at https://ui.perfetto.dev (one track per
  process).
* ``report METRICS.json`` — human run report: per-kernel span table,
  per-process utilization/idle gaps, straggler and critical-path summary,
  and a count of the recorded events by kind.
* ``history append|compare`` — fold ``BENCH_engine.json`` into the
  ``BENCH_history.jsonl`` ledger / flag per-profile speedup regressions.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs import history as obs_history
from repro.obs import report as obs_report
from repro.obs import timeline


def _load_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a metrics JSON object")
    return payload


def _cmd_export_trace(args: argparse.Namespace) -> int:
    payload = _load_payload(args.metrics)
    if not payload.get("intervals"):
        print(
            f"export-trace: {args.metrics} has no timeline intervals "
            "(run with REPRO_TIMELINE=1 or --trace-out); exporting events only",
            file=sys.stderr,
        )
    out = timeline.write_trace(args.out, payload)
    n = len(payload.get("intervals") or [])
    print(f"wrote {out} ({n} interval{'s' if n != 1 else ''}); "
          "open at https://ui.perfetto.dev")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(obs_report.render_report(_load_payload(args.metrics)))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    if args.action == "append":
        record, appended = obs_history.append(args.bench, args.history)
        state = "appended" if appended else "already recorded (same sha+timestamp)"
        print(
            f"{args.history}: {state} — {record['git_sha'][:12]} @ "
            f"{record['timestamp']}"
        )
        return 0
    # compare
    entries = obs_history.load_history(args.history)
    text, regressions = obs_history.render_compare(
        entries, threshold=args.threshold
    )
    print(text)
    if regressions and args.strict:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Timeline export, run reports and bench history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export-trace",
        help="write Chrome trace-event JSON from a metrics artifact",
    )
    export.add_argument("metrics", help="metrics JSON file")
    export.add_argument(
        "-o", "--out", default="trace.json", help="output path (default trace.json)"
    )
    export.set_defaults(func=_cmd_export_trace)

    report = sub.add_parser(
        "report", help="print a human run report from a metrics file"
    )
    report.add_argument("metrics", help="metrics JSON file")
    report.set_defaults(func=_cmd_report)

    hist = sub.add_parser(
        "history", help="bench-history ledger: append / compare"
    )
    hist.add_argument("action", choices=("append", "compare"))
    hist.add_argument(
        "--bench",
        default="BENCH_engine.json",
        help="bench artifact to fold on append (default BENCH_engine.json)",
    )
    hist.add_argument(
        "--history",
        default=obs_history.HISTORY_FILE,
        help=f"ledger path (default {obs_history.HISTORY_FILE})",
    )
    hist.add_argument(
        "--threshold",
        type=float,
        default=obs_history.DEFAULT_THRESHOLD,
        help="regression ratio for compare (flag when latest < threshold x "
        f"previous; default {obs_history.DEFAULT_THRESHOLD})",
    )
    hist.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when compare finds regressions (default: report only)",
    )
    hist.set_defaults(func=_cmd_history)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"python -m repro.obs: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
