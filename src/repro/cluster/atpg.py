"""Transport-driven speculative PODEM scheduling for ATPG.

The ATPG driver walks the collapsed fault list in order, dropping faults
that earlier cubes already detect; per-fault PODEM runs are independent and
deterministic, so they can be generated speculatively ahead of the merge.
:class:`ClusterPodemScheduler` ships fault chunks over any cluster
transport, *broadcasts* drops between submissions (a chunk submitted after
a fault was dropped simply omits it), and hands results back strictly in
fault-list order — so the driver's :class:`~repro.atpg.tpg.ATPGResult` is
bit-identical to a serial run for any worker count or arrival order.

Every pooled generation run uses this class: the ``cluster`` backend with
whatever transport it resolves, every other backend with the ``mp``
transport over the shared spawn pool (see :func:`repro.atpg.tpg._podem_scheduler`).
Whenever no transport can be used — none could be built, or it failed
mid-run — the scheduler runs the same compiled engine inline, result for
result (already-buffered results stay valid because per-fault runs are
deterministic).
"""

from __future__ import annotations

import traceback
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.cluster.protocol import (
    CHUNKS_PER_WORKER,
    in_worker_context,
    podem_base_task,
    podem_task,
)
from repro.cluster.transport import (
    Transport,
    TransportError,
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
        transport: transport name or instance; ``None`` resolves through
            ``REPRO_TRANSPORT``.
        jobs: worker count; ``None`` resolves through
            :func:`~repro.engine.pool.resolve_jobs`.
        chunks_per_worker: chunk-sizing knob, as for fault simulation.
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
    ) -> None:
        self.program = program
        self.sites = list(sites)
        self.stuck_values = [1 if value else 0 for value in stuck_values]
        self.backtrack_limit = int(backtrack_limit)
        self.transport = transport
        # A caller-pinned transport instance is used as is: it is never
        # discarded (its replacement is not ours to choose).
        self._pinned = isinstance(transport, Transport)
        self.jobs = resolve_jobs(jobs)
        self._engine: Optional[CompiledTernaryPodem] = None
        self._buffer: Dict[int, RawPodemResult] = {}
        self._dropped: set = set()
        self._inflight: Dict[str, List[int]] = {}
        self._pending: Deque[Tuple[int, int]] = deque()
        self._transport: Optional[Transport] = None
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
            lo, hi = self._pending.popleft()
            positions = [i for i in range(lo, hi) if i not in self._dropped]
            self.stats["dropped_submissions"] += hi - lo - len(positions)
            if not positions:
                continue
            task = podem_task(
                self._base_task,
                [self.sites[i] for i in positions],
                [self.stuck_values[i] for i in positions],
            )
            self.stats["chunks"] += 1
            task_id = self._transport.submit(task)
            self._inflight[task_id] = positions
        if not self._inflight:
            raise RuntimeError(
                "PODEM scheduler has no pending work for the requested fault"
            )
        task_id, raws = self._transport.next_result(timeout=CHUNK_TIMEOUT)
        positions = self._inflight.pop(task_id, None)
        if positions is None:
            return  # duplicate delivery of an already-merged chunk
        for index, raw in zip(positions, raws):
            self._buffer[index] = raw

    def fetch(self, index: int) -> RawPodemResult:
        """The PODEM result for the fault at ``index`` (blocking).

        The driver fetches in increasing index order and never fetches a
        dropped fault, so the result is either buffered already or owed by a
        pending/in-flight chunk.  Any transport failure falls back to the
        inline engine for this and all later fetches — already-buffered
        results stay valid because per-fault runs are deterministic.
        """
        buffered = self._buffer.pop(index, None)
        if buffered is not None:
            return buffered
        if self._transport is None:
            return self._run_inline(index)
        try:
            while index not in self._buffer:
                self._pump()
            return self._buffer.pop(index)
        except Exception as err:
            # Fall back visibly: the cause (task id, transport, traceback)
            # goes to the event log before the inline engine takes over.
            obs.event(
                "transport_failed",
                transport=getattr(err, "transport", None) or self._transport.name,
                task_id=getattr(err, "task_id", None),
                consumer="podem_scheduler",
                fallback="inline",
                error=repr(err),
                traceback=traceback.format_exc(),
            )
            if not self._pinned:
                discard_transport(self._transport, err)
            self._transport = None
            self._inflight.clear()
            self._pending.clear()
            self.stats["mode"] = "inline"
            return self._run_inline(index)
