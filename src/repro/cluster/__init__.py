"""Queue-backed distributed executor for simulation work units.

``repro.cluster`` fans the engine's transport-agnostic work units — fault
chunks, pattern shards, PODEM chunks and experiment-runner cells — out over
pluggable transports:

* ``local`` — in-process execution (tests, semantics oracle);
* ``mp`` — the shared spawn-safe process pool of :mod:`repro.engine.pool`
  behind the transport interface (the default, and the transport every
  ``jobs > 1`` run of the other backends pins);
* ``queue`` — a file-backed task queue with lease/heartbeat retry and a
  ``python -m repro.cluster.worker`` entrypoint so workers can join from
  other hosts or containers over a shared filesystem.

Importing this package (or :mod:`repro.engine`, which imports it) registers
the ``"cluster"`` simulation backend (``REPRO_BACKEND=cluster``); results
are bit-identical to the ``packed`` and ``naive`` backends for every
transport, worker count, failure pattern and task arrival order — the
protocol's merges are order-independent and idempotent by construction
(:mod:`repro.cluster.protocol`).

The runtime is hardened for real fleets: failing tasks get a bounded retry
budget with backoff and end in an on-disk quarantine plus an inline re-run
(:mod:`repro.cluster.retry`), completed results checkpoint into resumable
run journals (:mod:`repro.cluster.checkpoint`), a sick transport degrades
``queue → mp → local → inline`` instead of hanging, and a seeded chaos
harness (:mod:`repro.cluster.chaos`, ``REPRO_CHAOS``) injects worker
kills, stalls and corrupt results deterministically to prove all of it.
"""

# Fully initialise the engine package first: it imports this package at its
# end (registering the cluster backend), and this ordering keeps every
# cross-import hitting an already-complete module regardless of whether
# ``repro.engine`` or ``repro.cluster`` is imported first.
import repro.engine  # noqa: F401  (import order, see above)

from repro.cluster.atpg import ClusterPodemScheduler
from repro.cluster.backend import ClusterBackend
from repro.cluster.chaos import (
    CHAOS_ENV_VAR,
    CHAOS_KINDS,
    ChaosInjector,
    parse_chaos_spec,
)
from repro.cluster.checkpoint import (
    MISSING,
    RunJournal,
    program_digest,
    resolve_journal,
    task_key,
)
from repro.cluster.fault_sim import ClusterFaultSimulator, run_fault_plan
from repro.cluster.retry import (
    DEFAULT_TASK_RETRIES,
    TASK_RETRIES_ENV_VAR,
    parse_task_retries,
    resolve_task_retries,
)
from repro.cluster.protocol import (
    CHUNK_PLAN_ENV_VAR,
    CHUNK_PLANS,
    CHUNKS_PER_WORKER,
    MIN_CHUNK_FAULTS,
    WORKER_ENV_VAR,
    AdaptiveChunker,
    execute_task,
    in_worker_context,
    min_merge,
    pickled_program,
    plan_chunks,
    resolve_chunk_plan,
)
from repro.cluster.transport import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_TRANSPORT_NAME,
    LEASE_TIMEOUT_ENV_VAR,
    QUEUE_DIR_ENV_VAR,
    QUEUE_WORKERS_ENV_VAR,
    TRANSPORT_ENV_VAR,
    TRANSPORTS,
    LocalTransport,
    MpTransport,
    QuarantineError,
    QueueTransport,
    Transport,
    TransportError,
    TransportTaskError,
    default_transport_name,
    degraded_transport_name,
    parse_lease_timeout,
    parse_transport_spec,
    resolve_lease_timeout,
    resolve_transport,
    set_default_lease_timeout,
    set_default_transport,
    shutdown_shared_transports,
)

__all__ = [
    "CHAOS_ENV_VAR",
    "CHAOS_KINDS",
    "CHUNK_PLAN_ENV_VAR",
    "CHUNK_PLANS",
    "CHUNKS_PER_WORKER",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_TASK_RETRIES",
    "DEFAULT_TRANSPORT_NAME",
    "LEASE_TIMEOUT_ENV_VAR",
    "MIN_CHUNK_FAULTS",
    "MISSING",
    "QUEUE_DIR_ENV_VAR",
    "QUEUE_WORKERS_ENV_VAR",
    "TASK_RETRIES_ENV_VAR",
    "TRANSPORT_ENV_VAR",
    "TRANSPORTS",
    "WORKER_ENV_VAR",
    "AdaptiveChunker",
    "ChaosInjector",
    "ClusterBackend",
    "ClusterFaultSimulator",
    "ClusterPodemScheduler",
    "LocalTransport",
    "MpTransport",
    "QuarantineError",
    "QueueTransport",
    "RunJournal",
    "Transport",
    "TransportError",
    "TransportTaskError",
    "default_transport_name",
    "degraded_transport_name",
    "execute_task",
    "in_worker_context",
    "min_merge",
    "parse_chaos_spec",
    "parse_lease_timeout",
    "parse_task_retries",
    "parse_transport_spec",
    "pickled_program",
    "plan_chunks",
    "program_digest",
    "resolve_chunk_plan",
    "resolve_journal",
    "resolve_lease_timeout",
    "resolve_task_retries",
    "resolve_transport",
    "run_fault_plan",
    "set_default_lease_timeout",
    "set_default_transport",
    "shutdown_shared_transports",
]
