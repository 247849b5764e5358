"""Transport-driven fault simulation over the compiled program.

:func:`run_fault_plan` executes a sharding plan from
:func:`repro.cluster.protocol.plan_chunks` over any transport: it is the
single scheduling/merging path behind every multi-process fault-simulation
run (the ``cluster`` backend, over ``mp`` — the shared spawn pool — or the
in-process ``local`` transport), so the detected-fault broadcast, the
deterministic min-merge and the adaptive chunk sizing exist exactly once.

:class:`ClusterFaultSimulator` is the ``cluster`` backend's fault
simulator: resolve a transport, run the plan, and fall back to the
in-process packed implementation whenever no transport can be built or the
transport fails mid-run — results are bit-identical to ``packed``/``naive``
in every case, for any worker count and any task arrival order.
"""

from __future__ import annotations

import traceback
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import shadow_for
from repro.circuit.netlist import Circuit
from repro.circuit.simulator import check_pattern_matrix
from repro.cluster.executor import stream_tasks
from repro.cluster.protocol import (
    CHUNKS_PER_WORKER,
    MIN_CHUNK_FAULTS,
    AdaptiveChunker,
    in_worker_context,
    merge_chunk_stats,
    min_merge,
    plan_chunks,
    resolve_chunk_plan,
    simulate_base_task,
    simulate_task,
)
from repro.cluster.transport import (
    Transport,
    TransportError,
    discard_transport,
    resolve_transport,
)
from repro.cubes.cube import TestSet
from repro.engine.compile import CompiledCircuit, compile_circuit
from repro.engine.fault import (
    DROP_BLOCK_PATTERNS,
    WORD_DROP_BLOCK_PATTERNS,
    FaultSimulationResult,
    PackedFaultSimulator,
    _assemble,
    _new_stats,
    _unique_faults,
    _validate_run,
    resolve_fault_mode,
    resolve_grading_kernel,
)
from repro.engine.pool import CHUNK_TIMEOUT, resolve_jobs
from repro.obs import recorder as obs


def _chunk_units(chunker: AdaptiveChunker) -> Iterator[Tuple[int, int]]:
    """Adaptive chunk bounds as a lazy unit stream (sized at submission)."""
    while True:
        bounds = chunker.next_bounds()
        if bounds is None:
            return
        yield bounds


def run_fault_plan(
    transport: Transport,
    program: CompiledCircuit,
    plan: Tuple[str, List[Tuple[int, int]]],
    patterns: TestSet,
    sites: Sequence[int],
    stuck_values: Sequence[int],
    fault_kernel: str,
    block_patterns: int,
    drop_detected: bool,
    stats: Dict[str, object],
    chunker: Optional[AdaptiveChunker] = None,
    max_inflight: Optional[int] = None,
    timeout: float = CHUNK_TIMEOUT,
) -> List[Optional[int]]:
    """Execute one sharding plan over ``transport``; first-detect per fault.

    Fault chunks merge by scatter (disjoint positions), pattern shards by
    the order-independent min-merge; with ``drop_detected`` the parent
    broadcasts already-detected faults into every later-built shard task.
    When ``chunker`` is given, fault-chunk bounds come from it lazily —
    sized by the cone-evaluation feedback of whatever chunks completed
    before each submission — instead of from the static plan.
    ``fault_kernel`` is the resolved grading kernel every chunk runs
    (``"lanes"``/``"words"``/``"faults"``, see
    :func:`~repro.engine.fault.resolve_grading_kernel`).
    """
    mode, chunks = plan
    n_patterns = len(patterns)
    n_faults = len(sites)
    matrix = check_pattern_matrix(patterns.matrix, program.n_inputs)
    base_task = simulate_base_task(
        program, matrix, n_patterns, fault_kernel, block_patterns, drop_detected
    )
    first: List[Optional[int]] = [None] * n_faults
    # REPRO_SANITIZE=1: shadow-record every merged envelope and re-merge in
    # adversarial orders after the run; order dependence aborts the run.
    shadow = shadow_for(
        n_faults, min_merge, label=f"fault_plan/{program.name}/{mode}"
    )
    stats["mode"] = mode
    stats["fault_mode"] = base_task["fault_mode"]
    if max_inflight is None:
        max_inflight = max(2, transport.workers + 2)

    if mode == "fault-chunks":
        units: Iterator[Tuple[int, int]] = (
            _chunk_units(chunker) if chunker is not None else iter(chunks)
        )

        def build_task(bounds):
            lo, hi = bounds
            stats["chunks"] += 1
            task = simulate_task(
                base_task, sites[lo:hi], stuck_values[lo:hi], 0, n_patterns
            )
            return task, list(range(lo, hi))

        def on_result(positions, payload):
            chunk_first, chunk_stats = payload
            if shadow is not None:
                shadow.record(positions, chunk_first)
            min_merge(first, positions, chunk_first)
            merge_chunk_stats(stats, chunk_stats)
            if chunker is not None:
                chunker.record(len(positions), chunk_stats["cone_evaluations"])

    else:  # pattern-shards

        def build_task(bounds):
            start, stop = bounds
            if drop_detected:
                # Broadcast: skip faults already detected strictly before
                # this shard's range — they could only re-detect later,
                # which never changes the min-merge.
                positions = [
                    index
                    for index in range(n_faults)
                    if first[index] is None or first[index] >= start
                ]
            else:
                positions = list(range(n_faults))
            stats["shard_dropped_evaluations"] += n_faults - len(positions)
            if not positions:
                return None  # whole shard dropped: no task
            stats["chunks"] += 1
            task = simulate_task(
                base_task,
                [sites[index] for index in positions],
                [stuck_values[index] for index in positions],
                start,
                stop,
            )
            return task, positions

        def on_result(positions, payload):
            chunk_first, chunk_stats = payload
            if shadow is not None:
                shadow.record(positions, chunk_first)
            min_merge(first, positions, chunk_first)
            merge_chunk_stats(stats, chunk_stats)

        units = iter(chunks)

    stream_tasks(transport, units, build_task, on_result, max_inflight, timeout)
    if shadow is not None:
        shadow.verify(first)
    return first


class ClusterFaultSimulator:
    """Fault simulator scheduling shard work units over a cluster transport.

    Args:
        circuit: circuit under test (compiled here if no ``program`` given).
        transport: transport name (``"local"`` / ``"mp"``), a ready
            :class:`~repro.cluster.transport.Transport` instance, or
            ``None`` to resolve through ``REPRO_TRANSPORT`` at run time.
        jobs: worker count; ``None`` resolves through
            :func:`~repro.engine.pool.resolve_jobs` at run time.
        block_patterns: fault-dropping block size (also the pattern-shard
            alignment unit); defaults per fault mode like
            :class:`~repro.engine.fault.PackedFaultSimulator`.
        program: reuse an already-compiled program for ``circuit``.
        chunks_per_worker / min_chunk_faults: sharding knobs, mainly for
            tests.
        mode: packed fault-grading mode
            (``"auto"``/``"lanes"``/``"words"``/``"faults"``).
        chunk_plan: ``"adaptive"`` (default; chunk sizes follow measured
            cone cost) or ``"static"`` (the fixed equal-count plan);
            ``None`` resolves through ``REPRO_CHUNK_PLAN``.
    """

    def __init__(
        self,
        circuit: Circuit,
        transport=None,
        jobs: Optional[int] = None,
        block_patterns: Optional[int] = None,
        program: Optional[CompiledCircuit] = None,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        min_chunk_faults: int = MIN_CHUNK_FAULTS,
        mode: Optional[str] = None,
        chunk_plan: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.transport = transport
        self.jobs = jobs
        self.mode = resolve_fault_mode(mode)
        self.chunk_plan = resolve_chunk_plan(chunk_plan)
        self.block_patterns = (
            max(1, int(block_patterns)) if block_patterns is not None else None
        )
        self.program = program if program is not None else compile_circuit(circuit)
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        self.min_chunk_faults = max(1, int(min_chunk_faults))
        self._inline: Optional[PackedFaultSimulator] = None
        self.last_run_stats: Dict[str, object] = self._fresh_stats(1)

    @staticmethod
    def _fresh_stats(jobs: int) -> Dict[str, object]:
        stats: Dict[str, object] = _new_stats()
        stats.update(
            mode="inline",
            transport=None,
            jobs=jobs,
            chunks=0,
            shard_dropped_evaluations=0,
        )
        return stats

    def _block_patterns_for(self, kernel: str) -> int:
        if self.block_patterns is not None:
            return self.block_patterns
        return WORD_DROP_BLOCK_PATTERNS if kernel == "words" else DROP_BLOCK_PATTERNS

    def _run_inline(
        self,
        patterns: TestSet,
        faults: Sequence[object],
        drop_detected: bool,
        stats: Dict[str, object],
    ) -> FaultSimulationResult:
        if self._inline is None:
            self._inline = PackedFaultSimulator(
                self.circuit,
                block_patterns=self.block_patterns,
                program=self.program,
                mode=self.mode,
            )
        result = self._inline.run(patterns, faults, drop_detected=drop_detected)
        for key, value in self._inline.last_run_stats.items():
            stats[key] = value
        stats["mode"] = "inline"
        return result

    def _make_chunker(
        self, plan: Tuple[str, List[Tuple[int, int]]], n_faults: int
    ) -> Optional[AdaptiveChunker]:
        mode, chunks = plan
        if mode != "fault-chunks" or self.chunk_plan != "adaptive":
            return None
        lo, hi = chunks[0]
        return AdaptiveChunker(
            n_faults, initial_chunk=hi - lo, min_chunk=self.min_chunk_faults
        )

    def run(
        self,
        patterns: TestSet,
        faults: Sequence[object],
        drop_detected: bool = True,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``faults``.

        Results (detection map, first-detecting indices, fault order) are
        bit-identical to the ``packed`` and ``naive`` backends; only the
        execution strategy differs.
        """
        jobs = resolve_jobs(self.jobs)
        stats = self.last_run_stats = self._fresh_stats(jobs)
        early = _validate_run(patterns, self.program.n_inputs, faults)
        if early is not None:
            return early
        faults = _unique_faults(faults)
        n_patterns = len(patterns)
        kernel = resolve_grading_kernel(self.mode, n_patterns, len(faults))
        block_patterns = self._block_patterns_for(kernel)
        plan = (
            plan_chunks(
                jobs,
                len(faults),
                n_patterns,
                block_patterns,
                chunks_per_worker=self.chunks_per_worker,
                min_chunk_faults=self.min_chunk_faults,
            )
            if jobs > 1 and not in_worker_context()
            else None
        )
        if plan is None:
            return self._run_inline(patterns, faults, drop_detected, stats)
        # A caller-pinned transport instance is used as is: it is never
        # discarded (its replacement is not ours to choose).
        pinned = isinstance(self.transport, Transport)
        try:
            transport = (
                self.transport
                if pinned
                else resolve_transport(self.transport, jobs=jobs)
            )
        except TransportError:
            return self._run_inline(patterns, faults, drop_detected, stats)
        sites = [self.program.row_of(f.net) for f in faults]
        stuck_values = [1 if f.stuck_value else 0 for f in faults]
        try:
            with obs.span(f"fault_sim/{self.program.name}/schedule"):
                first = run_fault_plan(
                    transport,
                    self.program,
                    plan,
                    patterns,
                    sites,
                    stuck_values,
                    kernel,
                    block_patterns,
                    drop_detected,
                    stats,
                    chunker=self._make_chunker(plan, len(faults)),
                    max_inflight=max(2, jobs + 2),
                )
        except Exception as err:
            # A failed transport must never cost correctness: discard the
            # partial first-detect vector and redo the run in process.  The
            # cause goes to the event log before the inline run engages.
            obs.event(
                "transport_failed",
                transport=getattr(err, "transport", None) or transport.name,
                task_id=getattr(err, "task_id", None),
                consumer="fault_sim",
                fallback="inline",
                error=repr(err),
                traceback=traceback.format_exc(),
            )
            if not pinned:
                discard_transport(transport, err)
            return self._run_inline(patterns, faults, drop_detected, stats)
        stats["transport"] = transport.name
        result = _assemble(faults, first, n_patterns)
        if obs.enabled():
            # Kernel counters (blocks / cone_evaluations / ...) arrived via
            # the per-task snapshots the transport absorbed; the parent adds
            # only the result-level counters, so nothing double-counts.
            obs.add_counters(
                {
                    "fault_sim.runs": 1,
                    "fault_sim.patterns": result.n_patterns,
                    "fault_sim.faults": result.detected_count
                    + len(result.undetected),
                    "fault_sim.detected": result.detected_count,
                }
            )
        return result
