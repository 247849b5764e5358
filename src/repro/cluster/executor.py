"""The shared submit/collect loop every cluster consumer drives.

:func:`stream_tasks` is the one scheduling loop behind cluster fault
simulation, pooled PODEM generation and the experiment runner's
cell fan-out.  It pulls *units* (chunk bounds, shard ranges, cells) from an
iterator, encodes each to a task **at submission time** — which is what
makes detected-fault broadcasts and adaptive chunk sizing work: a unit
built late sees everything merged so far — keeps a bounded number of tasks
in flight, and hands results to the caller's merge callback in arrival
order.

Arrival order is whatever the transport produces; correctness comes from
the merge callbacks being order-independent and idempotent
(:mod:`repro.cluster.protocol`).  Results for unknown task ids — duplicate
deliveries — are discarded here, making the loop safe over any transport.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.cluster.transport import Transport
from repro.engine.pool import CHUNK_TIMEOUT

_DONE = object()


def stream_tasks(
    transport: Transport,
    units: Iterator[object],
    build_task: Callable[[object], Optional[Tuple[Dict[str, object], object]]],
    on_result: Callable[[object, object], None],
    max_inflight: int,
    timeout: float = CHUNK_TIMEOUT,
) -> int:
    """Run every unit through the transport; returns the task count.

    Args:
        transport: where tasks execute.
        units: lazily consumed unit stream; may be a generator whose next
            value depends on results merged so far (adaptive chunking).
        build_task: unit -> ``(task, meta)``, or ``None`` to skip the unit
            entirely (e.g. a shard whose faults were all detected already).
        on_result: called with ``(meta, payload)`` for each completed task,
            in arrival order; must be order-independent and idempotent.
        max_inflight: submission window; small enough that late-built tasks
            benefit from broadcasts, large enough to keep workers busy.
        timeout: per-collect timeout handed to the transport.
    """
    inflight: Dict[str, object] = {}
    submitted = 0
    exhausted = False
    while True:
        while not exhausted and len(inflight) < max_inflight:
            unit = next(units, _DONE)
            if unit is _DONE:
                exhausted = True
                break
            built = build_task(unit)
            if built is None:
                continue
            task, meta = built
            task_id = transport.submit(task)
            inflight[task_id] = meta
            submitted += 1
        if not inflight:
            if exhausted:
                return submitted
            continue
        task_id, payload = transport.next_result(timeout=timeout)
        meta = inflight.pop(task_id, _DONE)
        if meta is _DONE:
            continue  # duplicate delivery of an already-merged task
        on_result(meta, payload)
