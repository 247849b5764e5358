"""Command-line entry point regenerating every table and figure of the paper.

Installed as ``dpfill-experiments``.  Typical invocations::

    dpfill-experiments                      # all artefacts, default benchmarks
    dpfill-experiments --artifacts 2,4,5    # only Tables II, IV and V
    dpfill-experiments --benchmarks b03,b08 # restrict the benchmark set
    dpfill-experiments --out results.txt    # also write the report to a file
    dpfill-experiments --backend naive      # force the reference simulator
    dpfill-experiments --jobs 4             # 4 worker processes
    REPRO_INCLUDE_LARGE=1 dpfill-experiments  # include scaled b14-b22

Parallel scheduling
-------------------
With ``--jobs N`` (or ``REPRO_JOBS``) the runner splits the work into
independent *cells* — one (artifact, benchmark) pair each, plus whole-artifact
cells for the figures' cross-benchmark parts — and submits them all at once
as cluster work units (:func:`repro.cluster.protocol.cell_task`), so the
workers load-balance across artefacts.  The cells ride the ``mp`` transport
(the shared spawn-safe process pool of :mod:`repro.engine.pool`); under
``--backend cluster`` they ride the resolved transport instead
(``--transport`` / ``REPRO_TRANSPORT``), e.g. ``queue`` spools them to
``python -m repro.cluster.worker`` processes that may live on other hosts.
Results merge back **in deterministic cell order**, so the report text is
byte-identical to a serial run for every transport, worker count or retried
task.  Any cell that fails in a worker re-runs in process, and a transport
that cannot be built at all means a serial run; parallelism is purely a
scheduling concern and can never change results.

Robustness knobs: ``--resume RUN_DIR`` checkpoints completed cells into a
durable journal and replays them on the next invocation, so a run killed
halfway re-executes only the remainder (and still prints a byte-identical
report); ``--lease-timeout`` tunes how long the queue transport waits
before re-enqueuing a claimed-but-unfinished task.
"""

from __future__ import annotations

import argparse
import sys
import time
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from repro import envvars
from repro.cluster.checkpoint import MISSING, RunJournal, resolve_journal
from repro.cluster.protocol import cell_task
from repro.cluster.transport import (
    TransportError,
    TransportTaskError,
    parse_lease_timeout,
    parse_transport_spec,
    resolve_transport,
    set_default_lease_timeout,
    set_default_transport,
)
from repro.engine.backend import (
    available_backends,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.engine.pool import CHUNK_TIMEOUT as _CHUNK_TIMEOUT, parse_jobs, set_default_jobs
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


def _cell_key(cell: Cell, seed: int, backend_name: str) -> str:
    """Checkpoint key for one cell: pure content, no run-local identifiers.

    The cell tuple already carries the artefact and benchmark names, so two
    runs with the same benchmarks, seed and backend agree on every key and a
    ``--resume`` journal replays across processes.
    """
    blob = repr((cell, seed, backend_name)).encode("utf-8")
    return blake2b(blob, digest_size=16).hexdigest()


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


def _journal_hit(journal: Optional[RunJournal], key: str):
    """Replay a journalled cell, counting it; ``MISSING`` on miss."""
    if journal is None:
        return MISSING
    cached = journal.get(key)
    if cached is not MISSING:
        obs.counter("runner.cells_replayed")
    return cached


def _journal_put(journal: Optional[RunJournal], key: str, part) -> None:
    """Durably record one completed cell, counting it."""
    obs.counter("runner.cells_executed")
    if journal is not None:
        journal.put(key, part)


def _run_all_transport(
    artifacts: List[str],
    names: Optional[List[str]],
    seed: int,
    jobs: int,
    journal: Optional[RunJournal] = None,
) -> Optional[Dict[str, List[TableResult]]]:
    """Schedule every cell as a cluster work unit; merge in cell order.

    The cells ride the ``mp`` transport, or under the cluster backend the
    resolved one.  They are submitted eagerly (they are independent — no
    broadcast to respect), collected in whatever order the transport
    completes them, and merged in the fixed cell order, so the report is
    byte-identical to a serial run.  A cell whose task fails (poisoned
    worker, lost lease past the retry budget) is re-run in process; if the
    transport cannot be built at all, ``None`` lets the caller run serially.
    """
    backend_name = default_backend_name()
    try:
        transport = resolve_transport(
            None if backend_name == "cluster" else "mp", jobs=jobs
        )
    except TransportError:
        return None
    resolved = list(names or default_workload_names())
    submitted: List[Tuple[str, List[Tuple[Cell, str, Optional[str]]]]] = []
    replayed: Dict[str, List[TableResult]] = {}
    keys: Dict[str, str] = {}
    pending = set()
    for artifact in artifacts:
        entries = []
        for cell in _cells_for(artifact, resolved):
            key = _cell_key(cell, seed, backend_name)
            cached = _journal_hit(journal, key)
            if cached is not MISSING:
                replayed[key] = cached
                entries.append((cell, key, None))
                continue
            task_id = transport.submit(cell_task(cell, seed, backend_name))
            keys[task_id] = key
            entries.append((cell, key, task_id))
            pending.add(task_id)
        submitted.append((artifact, entries))

    collected: Dict[str, List[TableResult]] = {}
    while pending:
        try:
            task_id, payload = transport.next_result(timeout=_CHUNK_TIMEOUT)
        except TransportTaskError as err:
            # One cell died remotely: it alone re-runs inline below.
            if err.task_id is not None and err.task_id in pending:
                pending.discard(err.task_id)
                continue
            break
        except Exception as err:
            # Transport gone: every still-pending cell re-runs inline.
            obs.event("transport_lost", detail=repr(err))
            break
        if task_id in pending:
            pending.discard(task_id)
            collected[task_id] = payload
            _journal_put(journal, keys[task_id], payload)

    results: Dict[str, List[TableResult]] = {}
    for artifact, entries in submitted:
        parts = []
        for cell, key, task_id in entries:
            if task_id is None:
                parts.append(replayed[key])
            elif task_id in collected:
                parts.append(collected[task_id])
            else:
                part = _run_cell(cell, seed)
                _journal_put(journal, key, part)
                parts.append(part)
        results[artifact] = _merge_cells(artifact, parts)
    return results


def _run_all_serial_journaled(
    artifacts: List[str],
    names: Optional[List[str]],
    seed: int,
    journal: RunJournal,
) -> Dict[str, List[TableResult]]:
    """Serial run with per-cell checkpointing (``--resume`` at ``--jobs 1``).

    Decomposes into the same cells the parallel paths use so a journal
    written at any job count replays at any other; the merge keeps the
    report byte-identical to the plain serial path.
    """
    resolved = list(names or default_workload_names())
    backend_name = default_backend_name()
    results: Dict[str, List[TableResult]] = {}
    for artifact in artifacts:
        parts: List[List[TableResult]] = []
        for cell in _cells_for(artifact, resolved):
            key = _cell_key(cell, seed, backend_name)
            cached = _journal_hit(journal, key)
            if cached is not MISSING:
                parts.append(cached)
                continue
            part = _run_cell(cell, seed)
            _journal_put(journal, key, part)
            parts.append(part)
        results[artifact] = _merge_cells(artifact, parts)
    return results


def run_all(
    artifacts: Optional[List[str]] = None,
    names: Optional[List[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    resume=None,
) -> Dict[str, List[TableResult]]:
    """Run the requested artefacts and return their tables keyed by artefact id.

    Args:
        artifacts: artefact ids (default: all).
        names: benchmark names (default benchmark list).
        seed: workload seed.
        jobs: worker processes for the cell scheduler; ``1`` runs serially.
            Under the cluster backend the cells ride the resolved cluster
            transport; otherwise the ``mp`` transport (the shared process
            pool).  Tables are identical every way — parallel cells are
            merged in deterministic order.
        resume: run directory (or open
            :class:`~repro.cluster.checkpoint.RunJournal`) holding the
            ``cells`` checkpoint journal.  Completed cells found there are
            replayed instead of re-executed and newly completed cells are
            appended, so a run killed halfway resumes with only the
            remainder — and the report stays byte-identical.
    """
    selected = list(artifacts or ARTIFACTS)
    journal = resolve_journal(resume, "cells")
    owns_journal = journal is not None and not isinstance(resume, RunJournal)
    try:
        if jobs > 1:
            results = _run_all_transport(selected, names, seed, jobs, journal)
            if results is not None:
                return results
        if journal is not None:
            return _run_all_serial_journaled(selected, names, seed, journal)
        return {artifact: _collect(artifact, names, seed) for artifact in selected}
    finally:
        if owns_journal:
            journal.close()


def _jobs_argument(text: str) -> int:
    """argparse type for ``--jobs``: a clear CLI error instead of a traceback."""
    try:
        return parse_jobs(text, source="--jobs")
    except ValueError as err:
        raise argparse.ArgumentTypeError(err.args[0]) from None


def _transport_argument(text: str) -> str:
    """argparse type for ``--transport``: validate the spec eagerly."""
    try:
        parse_transport_spec(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(err.args[0]) from None
    return text


def _lease_timeout_argument(text: str) -> float:
    """argparse type for ``--lease-timeout``: strict positive number."""
    try:
        return parse_lease_timeout(text, source="--lease-timeout")
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
        "--backend",
        default=None,
        choices=available_backends(),
        help="simulation backend for every table (default: REPRO_BACKEND or 'packed')",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_argument,
        default=None,
        help="worker processes for independent (artifact x benchmark) cells, "
        "and under --backend cluster for fault-simulation chunks and PODEM "
        "cube generation too (default: REPRO_JOBS or 1; report text is "
        "byte-identical to a serial run)",
    )
    parser.add_argument(
        "--transport",
        type=_transport_argument,
        default=None,
        help="cluster transport for --backend cluster: local, mp, queue or "
        "queue:<spool dir> (default: REPRO_TRANSPORT or 'mp'; results and "
        "report text are identical for every transport)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=_lease_timeout_argument,
        default=None,
        help="queue-transport lease timeout in seconds before an unfinished "
        "task is re-enqueued (default: REPRO_LEASE_TIMEOUT or 15)",
    )
    parser.add_argument(
        "--resume",
        default="",
        metavar="RUN_DIR",
        help="checkpoint completed (artifact x benchmark) cells into this "
        "run directory and replay any found there, so a killed run "
        "re-executes only the remainder; the report is byte-identical "
        "either way",
    )
    parser.add_argument(
        "--metrics",
        default="",
        help="write a telemetry metrics JSON (counters, per-kernel span "
        "timings, cluster event log) to this path after the run; implies "
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
    previous_backend = set_default_backend(args.backend) if args.backend else None
    try:
        # Fail fast on a mistyped REPRO_BACKEND before any output is produced
        # (and before any process-wide override is applied, so the early
        # return leaks nothing).  Only the env-var path can fail here: a
        # --backend value was already validated by argparse choices.
        get_backend()
    except KeyError as err:
        print(f"dpfill-experiments: error: {err.args[0]}", file=sys.stderr)
        return 2
    previous_jobs = set_default_jobs(args.jobs) if args.jobs is not None else None
    previous_transport = (
        set_default_transport(args.transport) if args.transport is not None else None
    )
    previous_lease = (
        set_default_lease_timeout(args.lease_timeout)
        if args.lease_timeout is not None
        else None
    )
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
    lines.append(f"simulation backend: {default_backend_name()}")
    lines.append("")

    try:
        start = time.perf_counter()
        results = run_all(
            artifacts, names, seed=args.seed, jobs=jobs, resume=args.resume or None
        )
        elapsed = time.perf_counter() - start
        for artifact in artifacts:
            for table in results[artifact]:
                lines.append(render_table(table))
                lines.append("")
    finally:
        if args.backend:
            set_default_backend(previous_backend)
        if args.jobs is not None:
            set_default_jobs(previous_jobs)
        if args.transport is not None:
            set_default_transport(previous_transport)
        if args.lease_timeout is not None:
            set_default_lease_timeout(previous_lease)

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
