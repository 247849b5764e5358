"""Chunked, order-independent execution of simulation work units.

``repro.cluster`` fans the engine's transport-agnostic work units — fault
chunks, pattern shards, PODEM chunks and experiment-runner cells — out over
two transports on one machine:

* ``local`` — in-process execution (tests, semantics oracle; ``lifo``
  order collects out of order on purpose);
* ``mp`` — the shared spawn-safe process pool of :mod:`repro.engine.pool`
  behind the transport interface (the default, and the transport every
  ``jobs > 1`` run of the other backends pins).

Importing this package (or :mod:`repro.engine`, which imports it) registers
the ``"cluster"`` simulation backend (``REPRO_BACKEND=cluster``); results
are bit-identical to the ``packed`` and ``naive`` backends for every
transport, worker count and task arrival order — the protocol's merges are
order-independent and idempotent by construction
(:mod:`repro.cluster.protocol`), and ``REPRO_SANITIZE=1`` re-checks that at
run time.  A failure has one fallback step: an ``mp`` run whose transport
fails continues in process, with the cause recorded as a
``transport_failed`` event.
"""

# Fully initialise the engine package first: it imports this package at its
# end (registering the cluster backend), and this ordering keeps every
# cross-import hitting an already-complete module regardless of whether
# ``repro.engine`` or ``repro.cluster`` is imported first.
import repro.engine  # noqa: F401  (import order, see above)

from repro.cluster.atpg import ClusterPodemScheduler
from repro.cluster.backend import ClusterBackend
from repro.cluster.fault_sim import ClusterFaultSimulator, run_fault_plan
from repro.cluster.protocol import (
    CHUNK_PLAN_ENV_VAR,
    CHUNK_PLANS,
    CHUNKS_PER_WORKER,
    MIN_CHUNK_FAULTS,
    AdaptiveChunker,
    execute_task,
    in_worker_context,
    min_merge,
    pickled_program,
    plan_chunks,
    resolve_chunk_plan,
)
from repro.cluster.transport import (
    DEFAULT_TRANSPORT_NAME,
    TRANSPORT_ENV_VAR,
    TRANSPORTS,
    LocalTransport,
    MpTransport,
    Transport,
    TransportError,
    TransportTaskError,
    default_transport_name,
    parse_transport,
    resolve_transport,
    set_default_transport,
)

__all__ = [
    "CHUNK_PLAN_ENV_VAR",
    "CHUNK_PLANS",
    "CHUNKS_PER_WORKER",
    "DEFAULT_TRANSPORT_NAME",
    "MIN_CHUNK_FAULTS",
    "TRANSPORT_ENV_VAR",
    "TRANSPORTS",
    "AdaptiveChunker",
    "ClusterBackend",
    "ClusterFaultSimulator",
    "ClusterPodemScheduler",
    "LocalTransport",
    "MpTransport",
    "Transport",
    "TransportError",
    "TransportTaskError",
    "default_transport_name",
    "execute_task",
    "in_worker_context",
    "min_merge",
    "parse_transport",
    "pickled_program",
    "plan_chunks",
    "resolve_chunk_plan",
    "resolve_transport",
    "run_fault_plan",
    "set_default_transport",
]
