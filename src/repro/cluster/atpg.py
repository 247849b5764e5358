"""Transport-driven speculative PODEM scheduling for ATPG.

The ATPG driver walks the collapsed fault list in order, dropping faults
that earlier cubes already detect; per-fault PODEM runs are independent and
deterministic, so they can be generated speculatively ahead of the merge.
:class:`ClusterPodemScheduler` ships fault chunks over any cluster
transport, *broadcasts* drops between submissions (a chunk submitted after
a fault was dropped simply omits it), and hands results back strictly in
fault-list order — so the driver's :class:`~repro.atpg.tpg.ATPGResult` is
bit-identical to a serial run for any worker count, arrival order or
retried task.

Every pooled generation run uses this class: the ``cluster`` backend with
whatever transport it resolves, every other backend with the ``mp``
transport over the shared spawn pool (see :func:`repro.atpg.tpg._podem_scheduler`).
A transport that fails mid-run steps down the degradation ladder; whenever
no transport can be used the scheduler runs the same compiled engine
inline, result for result (already-buffered results stay valid because
per-fault runs are deterministic).
"""

from __future__ import annotations

import traceback
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.cluster.checkpoint import MISSING, program_digest, resolve_journal, task_key
from repro.cluster.protocol import (
    CHUNKS_PER_WORKER,
    in_worker_context,
    podem_base_task,
    podem_task,
)
from repro.cluster.transport import (
    QuarantineError,
    Transport,
    TransportError,
    degraded_transport_name,
    discard_transport,
    resolve_transport,
)
from repro.engine.compile import CompiledCircuit
from repro.engine.pool import CHUNK_TIMEOUT, resolve_jobs
from repro.engine.ternary import CompiledTernaryPodem, RawPodemResult
from repro.obs import recorder as obs


class ClusterPodemScheduler:
    """Prefetches per-fault compiled-PODEM results over a cluster transport.

    Args:
        program: compiled circuit shipped to workers (pickled once).
        sites: fault-site row per fault, in fault-list order.
        stuck_values: stuck value (0/1) per fault, aligned with ``sites``.
        backtrack_limit: PODEM abort threshold (applied identically in every
            worker and in the inline fallback).
        transport: transport spec or instance; ``None`` resolves through
            ``REPRO_TRANSPORT``.
        jobs: worker count; ``None`` resolves through
            :func:`~repro.engine.pool.resolve_jobs`.
        chunks_per_worker: chunk-sizing knob, as for fault simulation.
        resume: run directory (or :class:`~repro.cluster.checkpoint.RunJournal`)
            to checkpoint completed chunk results into and replay them from;
            keys are salted with the compiled program's content digest so
            journals never leak across circuits.
    """

    def __init__(
        self,
        program: CompiledCircuit,
        sites: Sequence[int],
        stuck_values: Sequence[int],
        backtrack_limit: int,
        transport=None,
        jobs: Optional[int] = None,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        resume=None,
    ) -> None:
        self.program = program
        self.sites = list(sites)
        self.stuck_values = [1 if value else 0 for value in stuck_values]
        self.backtrack_limit = int(backtrack_limit)
        self.transport = transport
        # A caller-pinned transport instance is used as is: it is never
        # discarded and never degrades (its replacement is not ours to choose).
        self._pinned = isinstance(transport, Transport)
        self.jobs = resolve_jobs(jobs)
        self._engine: Optional[CompiledTernaryPodem] = None
        self._buffer: Dict[int, RawPodemResult] = {}
        self._dropped: set = set()
        self._inflight: Dict[str, List[int]] = {}
        self._keys: Dict[str, str] = {}
        self._pending: Deque[object] = deque()
        self._transport: Optional[Transport] = None
        self._journal = resolve_journal(resume, "podem")
        self._journal_salt = (
            f"{program_digest(program)}|{self.backtrack_limit}"
            if self._journal is not None
            else ""
        )
        self.stats: Dict[str, object] = {
            "mode": "inline",
            "transport": None,
            "jobs": self.jobs,
            "chunks": 0,
            "dropped_submissions": 0,
        }
        n_faults = len(self.sites)
        if n_faults <= 1 or in_worker_context():
            return
        chunk = max(1, -(-n_faults // (self.jobs * max(1, int(chunks_per_worker)))))
        chunks = [(lo, min(lo + chunk, n_faults)) for lo in range(0, n_faults, chunk)]
        if len(chunks) <= 1:
            return  # a single chunk gains nothing from shipping
        try:
            transport_obj = (
                transport
                if self._pinned
                else resolve_transport(transport, jobs=self.jobs)
            )
        except TransportError:
            return  # no transport: generate inline
        self._transport = transport_obj
        self._pending = deque(chunks)
        self.stats["mode"] = "cluster"
        self.stats["transport"] = transport_obj.name
        self._base_task = podem_base_task(program, self.backtrack_limit)

    @property
    def pooled(self) -> bool:
        """Whether results are (still) coming from the transport."""
        return self._transport is not None

    def drop(self, index: int) -> None:
        """Broadcast that the fault at ``index`` no longer needs a cube."""
        self._dropped.add(index)

    def _run_inline(self, index: int) -> RawPodemResult:
        if self._engine is None:
            self._engine = CompiledTernaryPodem(
                self.program, backtrack_limit=self.backtrack_limit
            )
        return self._engine.run(self.sites[index], self.stuck_values[index])

    def _pump(self) -> None:
        """Submit pending chunks (minus dropped faults) and collect one result."""
        max_inflight = max(2, self.jobs + 1)
        while self._pending and len(self._inflight) < max_inflight:
            unit = self._pending.popleft()
            if isinstance(unit, tuple):
                # A (lo, hi) range from the initial plan; after a mid-run
                # degradation, re-enqueued in-flight work arrives as
                # explicit position lists instead.
                lo, hi = unit
                candidates: Sequence[int] = range(lo, hi)
            else:
                candidates = unit
            positions = [i for i in candidates if i not in self._dropped]
            self.stats["dropped_submissions"] += len(candidates) - len(positions)
            if not positions:
                continue
            task = podem_task(
                self._base_task,
                [self.sites[i] for i in positions],
                [self.stuck_values[i] for i in positions],
            )
            self.stats["chunks"] += 1
            if self._journal is not None:
                key = task_key(task, salt=self._journal_salt)
                cached = self._journal.get(key)
                if cached is not MISSING:
                    obs.counter("cluster.tasks_replayed")
                    for index, raw in zip(positions, cached):
                        self._buffer[index] = raw
                    continue
            try:
                task_id = self._transport.submit(task)
            except Exception:
                # The chunk is neither pending nor in flight any more: put
                # it back so the next rung still owes its faults.
                self._pending.appendleft(positions)
                raise
            self._inflight[task_id] = positions
            if self._journal is not None:
                self._keys[task_id] = key
        if not self._inflight:
            if self._buffer:
                return  # journal replay satisfied this pump without a submit
            raise RuntimeError(
                "PODEM scheduler has no pending work for the requested fault"
            )
        task_id, raws = self._transport.next_result(timeout=CHUNK_TIMEOUT)
        positions = self._inflight.pop(task_id, None)
        if positions is None:
            return  # duplicate delivery of an already-merged chunk
        if self._journal is not None:
            obs.counter("cluster.tasks_executed")
            self._journal.put(self._keys.pop(task_id), raws)
        for index, raw in zip(positions, raws):
            self._buffer[index] = raw

    def fetch(self, index: int) -> RawPodemResult:
        """The PODEM result for the fault at ``index`` (blocking).

        The driver fetches in increasing index order and never fetches a
        dropped fault, so the result is either buffered already or owed by a
        pending/in-flight chunk.  Any transport failure degrades to the
        inline engine for this and all later fetches — already-buffered
        results stay valid because per-fault runs are deterministic.
        """
        buffered = self._buffer.pop(index, None)
        if buffered is not None:
            return buffered
        while True:
            if self._transport is None:
                return self._run_inline(index)
            try:
                while index not in self._buffer:
                    self._pump()
                return self._buffer.pop(index)
            except QuarantineError:
                # The transport's retry/quarantine ladder already ran the
                # task inline and it still failed — a poisoned task, not a
                # sick transport.  Propagate the structured report.
                raise
            except Exception as err:
                # Degrade visibly: the cause (task id, transport, traceback)
                # goes to the event log before the next rung takes over.
                current_name = getattr(self._transport, "name", None)
                next_name = (
                    None
                    if self._pinned or current_name is None
                    else degraded_transport_name(current_name)
                )
                replacement: Optional[Transport] = None
                if next_name is not None:
                    try:
                        replacement = resolve_transport(next_name, jobs=self.jobs)
                    except (TransportError, ValueError):
                        replacement = None
                obs.event(
                    "transport_failed",
                    transport=getattr(err, "transport", None) or current_name,
                    task_id=getattr(err, "task_id", None),
                    consumer="podem_scheduler",
                    fallback=next_name if replacement is not None else "inline",
                    error=repr(err),
                    traceback=traceback.format_exc(),
                )
                if not self._pinned:
                    discard_transport(self._transport)
                if replacement is None:
                    self._transport = None
                    self._inflight.clear()
                    self._keys.clear()
                    self._pending.clear()
                    # Visible, like the fault-sim fallback.
                    self.stats["mode"] = "inline"
                    return self._run_inline(index)
                obs.event(
                    "transport_degraded",
                    consumer="podem_scheduler",
                    from_transport=current_name,
                    to_transport=next_name,
                )
                # Undelivered in-flight work moves to the front of the queue
                # as explicit position lists; chunk results are per-fault
                # deterministic, so re-execution on the new rung merges
                # identically.
                for positions in self._inflight.values():
                    self._pending.appendleft(list(positions))
                self._inflight.clear()
                self._keys.clear()
                self._transport = replacement
                self.stats["transport"] = replacement.name
                self.stats["degraded_from"] = current_name
