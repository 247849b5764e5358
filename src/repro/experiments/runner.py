"""Command-line entry point regenerating every table and figure of the paper.

Installed as ``dpfill-experiments``.  Typical invocations::

    dpfill-experiments                      # all artefacts, default benchmarks
    dpfill-experiments --artifacts 2,4,5    # only Tables II, IV and V
    dpfill-experiments --benchmarks b03,b08 # restrict the benchmark set
    dpfill-experiments --out results.txt    # also write the report to a file
    dpfill-experiments --jobs 4             # 4 worker processes
    REPRO_INCLUDE_LARGE=1 dpfill-experiments  # include scaled b14-b22

Parallel scheduling
-------------------
With ``--jobs N`` (or ``REPRO_JOBS``) the runner splits the work into
independent *cells* — one (artifact, benchmark) pair each, plus whole-artifact
cells for the figures' cross-benchmark parts — and submits them all at once
with ``apply_async`` to the shared spawn-safe process pool of
:mod:`repro.engine.pool`, so the workers load-balance across artefacts.
Fault grading and PODEM inside a cell run in process.  Results merge back
**in deterministic cell order**, so the report text is byte-identical to a
serial run for every worker count.  Any cell that fails in a worker re-runs
in process; a lost pool is retired and its pending cells re-run in process;
and a pool that cannot be built at all means a serial run.  Parallelism is
purely a scheduling concern and can never change results.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import envvars
from repro.engine.pool import (
    CHUNK_TIMEOUT,
    discard_broken_pool,
    parse_jobs,
    resolve_jobs,
    set_default_jobs,
    worker_pool,
)
from repro.experiments import figure1, figure2, table1, table2, table3, table4, table5, table6
from repro.experiments.report import TableResult, render_table
from repro.experiments.workloads import default_workload_names
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs
from repro.obs import timeline as obs_timeline

ARTIFACTS = ["1", "fig1", "2", "3", "4", "5", "6", "fig2"]

#: Artefacts whose tables have exactly one row per benchmark and no
#: cross-benchmark state — safe to split into per-benchmark cells.
_PER_BENCHMARK_ARTIFACTS = {"1", "2", "3", "4", "5", "6"}


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


# -- parallel cells ----------------------------------------------------------
#: A cell is (kind, artifact, benchmark names); kinds: "table" (one
#: benchmark of a per-benchmark table), "whole" (a full artefact),
#: "fig2ab" (Fig. 2 panels a+b for one benchmark), "fig2c" (panel c).
Cell = Tuple[str, str, Optional[List[str]]]


def _cells_for(artifact: str, names: List[str]) -> List[Cell]:
    """Decompose one artefact into independently runnable cells."""
    if artifact in _PER_BENCHMARK_ARTIFACTS:
        return [("table", artifact, [name]) for name in names]
    if artifact == "fig2":
        cells: List[Cell] = [("fig2ab", artifact, [name]) for name in names]
        cells.append(("fig2c", artifact, list(names)))
        return cells
    return [("whole", artifact, None)]


def _run_cell(cell: Cell, seed: int) -> List[TableResult]:
    """Execute one cell (in a worker or, as fallback, in process)."""
    kind, artifact, names = cell
    with obs.span(f"runner/{artifact}/{kind}"):
        if kind == "fig2ab":
            return figure2.as_tables(figure2.run(names, seed=seed, panels="ab"))
        if kind == "fig2c":
            return figure2.as_tables(figure2.run(names, seed=seed, panels="c"))
        return _collect(artifact, names, seed)


def _merge_cells(artifact: str, parts: List[List[TableResult]]) -> List[TableResult]:
    """Merge cell outputs back into the serial run's tables, byte-identically.

    Rows concatenate in cell (= benchmark) order; notes are deduplicated
    preserving first-seen order, which reproduces the serial notes exactly
    because every conditional note is emitted *after* the unconditional ones
    within each cell.
    """
    if artifact in _PER_BENCHMARK_ARTIFACTS:
        merged = TableResult(title=parts[0][0].title, columns=parts[0][0].columns)
        for part in parts:
            merged.rows.extend(part[0].rows)
            for note in part[0].notes:
                if note not in merged.notes:
                    merged.notes.append(note)
        return [merged]
    if artifact == "fig2":
        ab_parts, c_part = parts[:-1], parts[-1]
        table_a = TableResult(title=ab_parts[0][0].title, columns=ab_parts[0][0].columns)
        table_b = TableResult(title=ab_parts[0][1].title, columns=ab_parts[0][1].columns)
        for part in ab_parts:
            table_a.rows.extend(part[0].rows)
            table_b.rows.extend(part[1].rows)
        return [table_a, table_b, c_part[2]]
    return parts[0]


def _pool_cell(cell: Cell, seed: int, trace_flags: Tuple[bool, bool]):
    """Run one cell in a pool worker; returns ``(snapshot or None, tables)``.

    ``trace_flags`` is the submitting parent's ``(tracing, timeline)``: a
    worker spawned before the parent called ``obs.enable()`` still captures
    (``REPRO_TRACE`` reaches workers through the environment, ``obs.enable()``
    does not).  The snapshot holds the cell's counters, spans and events.
    """
    tracing, timeline = trace_flags
    if not (tracing or obs.enabled()):
        return None, _run_cell(cell, seed)
    capture = obs.task_capture(timeline=True if timeline else None)
    with capture:
        tables = _run_cell(cell, seed)
    return capture.snapshot(), tables


def _pooled_parts(pool, cells: List[Cell], seed: int) -> List[List[TableResult]]:
    """Every cell's tables in cell order: from ``pool``, or in process.

    A cell that raised in its worker re-runs in process on its own and the
    pool stays up.  A cell that returns no result within
    :data:`~repro.engine.pool.CHUNK_TIMEOUT` (a dead worker, a pool that
    stopped running) retires the shared pools, and every pending cell
    re-runs in process.
    """
    args = (seed, (obs.enabled(), obs.timeline_enabled()))
    handles = [pool.apply_async(_pool_cell, (cell, *args)) for cell in cells]
    parts: List[List[TableResult]] = []
    lost = False
    for index, (cell, handle) in enumerate(zip(cells, handles)):
        task_id = f"t{index:06d}"
        if not lost:
            try:
                snapshot, tables = handle.get(timeout=CHUNK_TIMEOUT)
            except multiprocessing.TimeoutError:
                # A lost task (its worker died, the pool stopped) never
                # returns: the pool, not the cell, failed.
                obs.event(
                    "transport_lost",
                    detail=f"task {task_id} returned no result within {CHUNK_TIMEOUT:.0f}s",
                )
                discard_broken_pool()
                lost = True
            except Exception as err:
                # multiprocessing chains the worker's traceback as a
                # RemoteTraceback cause; keep its text.
                cause = err.__cause__
                remote = type(cause).__name__ == "RemoteTraceback"
                obs.event(
                    "task_failed",
                    task_id=task_id,
                    error=repr(err),
                    traceback=str(cause) if remote else None,
                )
            else:
                obs.absorb_task(task_id, snapshot)
                parts.append(tables)
                continue
        parts.append(_run_cell(cell, seed))
    return parts


def _run_all_pooled(
    artifacts: List[str],
    names: Optional[List[str]],
    seed: int,
    jobs: int,
) -> Optional[Dict[str, List[TableResult]]]:
    """Run every cell on the shared worker pool; merge in cell order.

    The cells are submitted eagerly (they are independent) and merged in the
    fixed cell order, so the report is byte-identical to a serial run.  If
    the pool cannot be built at all, ``None`` lets the caller run serially.
    """
    pool = worker_pool(resolve_jobs(jobs))
    if pool is None:
        return None
    resolved = list(names or default_workload_names())
    plan = [(artifact, _cells_for(artifact, resolved)) for artifact in artifacts]
    parts = iter(_pooled_parts(pool, [cell for _, cells in plan for cell in cells], seed))
    return {
        artifact: _merge_cells(artifact, [next(parts) for _ in cells])
        for artifact, cells in plan
    }


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
        jobs: worker processes for the cell scheduler; ``1`` runs serially.
            The cells run on the shared process pool.
            Tables are identical either way — parallel cells are merged in
            deterministic order.
    """
    selected = list(artifacts or ARTIFACTS)
    if jobs > 1:
        results = _run_all_pooled(selected, names, seed, jobs)
        if results is not None:
            return results
    return {artifact: _collect(artifact, names, seed) for artifact in selected}


def _jobs_argument(text: str) -> int:
    """argparse type for ``--jobs``: a clear CLI error instead of a traceback."""
    try:
        return parse_jobs(text, source="--jobs")
    except ValueError as err:
        raise argparse.ArgumentTypeError(err.args[0]) from None


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
        "--jobs",
        type=_jobs_argument,
        default=None,
        help="worker processes for independent (artifact x benchmark) cells "
        "(default: REPRO_JOBS or 1; report text is byte-identical to a "
        "serial run)",
    )
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
        help="write a Chrome trace-event JSON (one track per worker; view "
        "at https://ui.perfetto.dev) to this path after the run; implies "
        "tracing plus the timeline tier (begin/end span intervals) for "
        "the run",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    artifacts = [a.strip() for a in args.artifacts.split(",") if a.strip()]
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()] or None
    if args.jobs is not None:
        jobs = args.jobs  # already validated by the argparse type
    else:
        try:
            jobs = envvars.JOBS.read() or 1
        except ValueError as err:
            print(f"dpfill-experiments: error: {err.args[0]}", file=sys.stderr)
            return 2
    previous_jobs = set_default_jobs(args.jobs) if args.jobs is not None else None
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

    try:
        start = time.perf_counter()
        results = run_all(artifacts, names, seed=args.seed, jobs=jobs)
        elapsed = time.perf_counter() - start
        for artifact in artifacts:
            for table in results[artifact]:
                lines.append(render_table(table))
                lines.append("")
    finally:
        if args.jobs is not None:
            set_default_jobs(previous_jobs)

    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    # Timing is environment-dependent, so it stays out of the report body:
    # the report (stdout above and --out) is byte-identical across --jobs.
    print(f"total runtime: {elapsed:.1f} s ({jobs} job{'s' if jobs != 1 else ''})")
    if metrics_path or trace_path:
        meta = {
            "tool": "dpfill-experiments",
            "artifacts": artifacts,
            "benchmarks": names or default_workload_names(),
            "jobs": jobs,
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
