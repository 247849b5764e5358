"""Command-line entry point regenerating every table and figure of the paper.

Installed as ``dpfill-experiments``.  Typical invocations::

    dpfill-experiments                      # all artefacts, default benchmarks
    dpfill-experiments --artifacts 2,4,5    # only Tables II, IV and V
    dpfill-experiments --benchmarks b03,b08 # restrict the benchmark set
    dpfill-experiments --out results.txt    # also write the report to a file
    REPRO_INCLUDE_LARGE=1 dpfill-experiments  # include scaled b14-b22

The artefacts are collected one after another in this process.  Within one
run, Tables V-VI and Fig. 2 reuse the orderings and fills Tables II-IV
computed (:mod:`repro.experiments.memo`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.experiments import figure1, figure2, table1, table2, table3, table4, table5, table6
from repro.experiments.report import TableResult, render_table
from repro.experiments.workloads import default_workload_names
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs
from repro.obs import timeline as obs_timeline

ARTIFACTS = ["1", "fig1", "2", "3", "4", "5", "6", "fig2"]


def _collect(artifact: str, names: Optional[List[str]], seed: int) -> List[TableResult]:
    with obs.span(f"runner/{artifact}/collect"):
        return _collect_impl(artifact, names, seed)


def _collect_impl(artifact: str, names: Optional[List[str]], seed: int) -> List[TableResult]:
    if artifact == "1":
        return [table1.run(names, seed=seed)]
    if artifact == "fig1":
        return [figure1.as_table(figure1.run())]
    if artifact == "2":
        return [table2.run(names, seed=seed)]
    if artifact == "3":
        return [table3.run(names, seed=seed)]
    if artifact == "4":
        return [table4.run(names, seed=seed)]
    if artifact == "5":
        return [table5.run(names, seed=seed)]
    if artifact == "6":
        return [table6.run(names, seed=seed)]
    if artifact == "fig2":
        return figure2.as_tables(figure2.run(names, seed=seed))
    raise ValueError(f"unknown artifact {artifact!r}; choose from {ARTIFACTS}")


def run_all(
    artifacts: Optional[List[str]] = None,
    names: Optional[List[str]] = None,
    seed: int = 0,
    jobs: int = 1,
) -> Dict[str, List[TableResult]]:
    """Run the requested artefacts and return their tables keyed by artefact id.

    Args:
        artifacts: artefact ids (default: all).
        names: benchmark names (default benchmark list).
        seed: workload seed.
        jobs: must be ``1``.  The runner has no worker processes; the
            keyword stays only because the pipeline benchmark
            (``perfbench/workloads.py``) still passes ``jobs=1``.

    Raises:
        ValueError: if ``jobs`` is not ``1``.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (the runner is serial), got {jobs!r}")
    return {artifact: _collect(artifact, names, seed) for artifact in artifacts or ARTIFACTS}


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="dpfill-experiments",
        description="Regenerate the DP-fill paper's tables and figures on the stand-in workloads.",
    )
    parser.add_argument(
        "--artifacts",
        default=",".join(ARTIFACTS),
        help=f"comma-separated artefact ids to run (default: all of {ARTIFACTS})",
    )
    parser.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated benchmark names (default: the default benchmark list)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--out", default="", help="also write the report to this file")
    parser.add_argument(
        "--metrics",
        default="",
        help="write a telemetry metrics JSON (counters, per-kernel span "
        "timings, event log) to this path after the run; implies "
        "tracing for the run (default: REPRO_METRICS if set)",
    )
    parser.add_argument(
        "--trace-out",
        default="",
        metavar="TRACE_JSON",
        help="write a Chrome trace-event JSON (view at "
        "https://ui.perfetto.dev) to this path after the run; implies "
        "tracing plus the timeline tier (begin/end span intervals) for "
        "the run",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    artifacts = [a.strip() for a in args.artifacts.split(",") if a.strip()]
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()] or None
    metrics_path = obs_metrics.resolve_metrics_path(args.metrics or None)
    trace_path = args.trace_out or None
    enabled_here = False
    if (metrics_path or trace_path) and not obs.enabled():
        obs.enable()  # --metrics/--trace-out imply tracing for this run
        enabled_here = True
    timeline_here = False
    if trace_path and not obs.timeline_enabled():
        obs.enable_timeline()  # --trace-out implies the timeline tier too
        timeline_here = True

    lines: List[str] = []
    lines.append("DP-fill reproduction - experiment report")
    lines.append(f"benchmarks: {names or default_workload_names()}")
    lines.append("")

    start = time.perf_counter()
    results = run_all(artifacts, names, seed=args.seed)
    elapsed = time.perf_counter() - start
    for artifact in artifacts:
        for table in results[artifact]:
            lines.append(render_table(table))
            lines.append("")

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    # Timing is environment-dependent, so it stays out of the report body.
    print(f"total runtime: {elapsed:.1f} s")
    if metrics_path or trace_path:
        meta = {
            "tool": "dpfill-experiments",
            "artifacts": artifacts,
            "benchmarks": names or default_workload_names(),
            "seed": args.seed,
            "elapsed_s": round(elapsed, 3),
        }
        payload = None
        if metrics_path:
            payload = obs_metrics.write_metrics(metrics_path, meta=meta)
            print(f"metrics written: {metrics_path}")
        if trace_path:
            if payload is None:
                payload = obs_metrics.metrics_payload(meta=meta)
            obs_timeline.write_trace(trace_path, payload)
            print(
                f"trace written: {trace_path} "
                "(load it at https://ui.perfetto.dev or chrome://tracing)"
            )
        if timeline_here:
            obs.enable_timeline(False)
        if enabled_here:
            obs.disable()  # restore the process-wide default, like the flags
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
