"""Pooled execution of the experiment runner's cells.

``repro.cluster`` carries one kind of work unit — an experiment-runner
(artifact x benchmark) cell — to the shared spawn-safe process pool of
:mod:`repro.engine.pool`.  ``run_all(jobs > 1)`` submits every cell to an
:class:`MpTransport` and merges the results in fixed cell order, so a report
is byte-identical to a serial run.  Fault grading and PODEM always run in
process on the ``naive`` or ``packed`` backend.

A failure has one fallback step: a cell whose task raised re-runs in
process, and a transport that is lost (a timed-out cell, a pool that
stopped) retires the shared pools so the rest of the process runs inline,
with the cause recorded as a ``transport_lost`` event.
:class:`LocalTransport` runs tasks in process and is the tests' fake for
``mp``.
"""

from repro.cluster.protocol import cell_task, execute_task, unwrap_payload
from repro.cluster.transport import (
    LocalTransport,
    MpTransport,
    Transport,
    TransportError,
    TransportTaskError,
    discard_transport,
)

__all__ = [
    "LocalTransport",
    "MpTransport",
    "Transport",
    "TransportError",
    "TransportTaskError",
    "cell_task",
    "discard_transport",
    "execute_task",
    "unwrap_payload",
]
