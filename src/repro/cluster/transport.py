"""Pluggable transports moving cluster work units to their executors.

A *transport* is a tiny submit/collect interface over which the cluster
executor schedules :mod:`repro.cluster.protocol` task dicts:

* ``"local"`` — tasks execute in-process, one per :meth:`next_result` call.
  Zero setup, fully deterministic; the transport of choice for tests and
  the semantics oracle for the other two.
* ``"mp"`` — tasks ride the shared spawn-safe process pool
  (:mod:`repro.engine.pool`): same pool, same lifecycle and same
  inline-fallback conditions for every multi-process run in the package.
* ``"queue"`` — a file-backed task queue in a *spool directory*.  The
  parent enqueues task files; workers — local subprocesses spawned by the
  transport, or ``python -m repro.cluster.worker --spool DIR`` processes
  joining from other hosts/containers over a shared filesystem — claim
  tasks by atomic rename, heartbeat a lease while executing, and write
  result files back.

**Lease/heartbeat retry.**  A queue worker that dies (or loses its host)
mid-task stops refreshing the task's lease; once the lease goes stale the
parent moves the claim back onto the queue for another worker — or, when no
live worker remains, executes it inline itself (the parent is always a
worker of last resort, so a queue run can never deadlock on an empty
worker set).  Duplicate deliveries this creates are harmless: task results
are deterministic and the parent consumes exactly one result per task id,
with the merge layer idempotent on top (:func:`repro.cluster.protocol.min_merge`).

Transport resolution mirrors the backend registry: explicit argument >
:func:`set_default_transport` (the runner's ``--transport`` flag) >
``REPRO_TRANSPORT`` environment variable > ``"mp"``.  A queue spool
directory can be given inline (``queue:/path/to/spool``) or via
``REPRO_QUEUE_DIR``; ``REPRO_QUEUE_WORKERS`` sizes the locally spawned
worker set (default: the resolved jobs count for a private spool, ``0``
when attaching to an external one — its workers are assumed to join from
outside).
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro import envvars
from repro.cluster.chaos import worker_injector as chaos_worker_injector
from repro.envvars import parse_lease_timeout
from repro.cluster.protocol import (
    WORKER_ENV_VAR,
    execute_task,
    unwrap_payload,
    worker_context,
)
from repro.cluster.retry import (
    backoff_delay,
    failure_record,
    format_quarantine_report,
    quarantine_entry,
    quarantine_task,
    resolve_task_retries,
)
from repro.obs import recorder as obs
from repro.engine.pool import (
    CHUNK_TIMEOUT,
    package_src_dir,
    resolve_jobs,
    worker_pool,
)

#: Environment variable selecting the cluster transport
#: (``local`` / ``mp`` / ``queue`` / ``queue:<spool dir>``).
TRANSPORT_ENV_VAR = envvars.TRANSPORT.name

#: Environment variable naming a queue spool directory to attach to.
QUEUE_DIR_ENV_VAR = envvars.QUEUE_DIR.name

#: Environment variable sizing the queue transport's spawned worker set.
QUEUE_WORKERS_ENV_VAR = envvars.QUEUE_WORKERS.name

TRANSPORTS = ("local", "mp", "queue")

DEFAULT_TRANSPORT_NAME = "mp"

#: Environment variable overriding the queue lease timeout (seconds).
LEASE_TIMEOUT_ENV_VAR = envvars.LEASE_TIMEOUT.name

#: Seconds without a lease heartbeat before a claimed task is re-enqueued.
DEFAULT_LEASE_TIMEOUT = 15.0

_default_name: Optional[str] = None
_default_lease_timeout: Optional[float] = None


def set_default_lease_timeout(value: Optional[float]) -> Optional[float]:
    """Set (or with ``None`` clear) the process-wide lease timeout override.

    Returns the previous override so callers can restore it (the experiment
    runner's ``--lease-timeout`` flag uses this like ``--transport``).

    Raises:
        ValueError: for non-positive values.
    """
    global _default_lease_timeout
    previous = _default_lease_timeout
    _default_lease_timeout = (
        parse_lease_timeout(value) if value is not None else None
    )
    return previous


def resolve_lease_timeout(value: Optional[float] = None) -> float:
    """Resolve the queue lease timeout.

    Resolution order mirrors the backend/transport registries: explicit
    argument > :func:`set_default_lease_timeout` > ``REPRO_LEASE_TIMEOUT``
    > :data:`DEFAULT_LEASE_TIMEOUT`.

    Raises:
        ValueError: for invalid explicit or environment values.
    """
    if value is not None:
        return parse_lease_timeout(value)
    if _default_lease_timeout is not None:
        return _default_lease_timeout
    env = envvars.LEASE_TIMEOUT.read()
    if env is not None:
        return env
    return DEFAULT_LEASE_TIMEOUT


class TransportError(RuntimeError):
    """A transport cannot be built or has failed; callers fall back inline."""


class TransportTaskError(RuntimeError):
    """A task raised in its executor; carries the remote traceback text.

    ``task_id`` identifies the failed task so collectors that can retry a
    single unit inline (the experiment runner's cells) know which one died
    without abandoning the rest of the batch; ``transport`` names the
    transport that surfaced the failure so fallback handlers can attach
    both to their failure events instead of swallowing the cause.
    """

    def __init__(
        self,
        message: str,
        task_id: Optional[str] = None,
        transport: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.transport = transport


class QuarantineError(TransportTaskError):
    """A task exhausted its retry budget *and* failed inline re-execution.

    This is the end of the recovery ladder: retries, backoff and the
    parent's inline worker-of-last-resort all failed, so the run aborts —
    with ``report`` (a list of :func:`repro.cluster.retry.quarantine_entry`
    dicts) naming exactly which tasks died, how many attempts each got and
    where their quarantine directories are.  Subclasses
    :class:`TransportTaskError` so existing per-unit retry handlers (the
    runner's cell fallback) still recognise it, but degradation ladders
    must re-raise it rather than stepping down a rung: the task already ran
    inline and failed, so no healthier transport can save it.
    """

    def __init__(
        self,
        message: str,
        task_id: Optional[str] = None,
        transport: Optional[str] = None,
        report: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        super().__init__(message, task_id=task_id, transport=transport)
        self.report = list(report or [])


def degraded_transport_name(name: str) -> Optional[str]:
    """The next rung down the degradation ladder, or ``None`` for inline.

    ``queue -> mp -> local -> inline``: each step trades distribution for
    reliability, ending at in-process execution which cannot fail for
    transport reasons at all.
    """
    ladder = {"queue": "mp", "mp": "local"}
    return ladder.get(name)


class Transport:
    """Submit/collect interface every transport implements.

    Results may come back in any order and (for the queue transport) more
    than once per task; consumers must key merges on the returned task id
    and be idempotent — the protocol layer's merges are.
    """

    name: str = "?"

    #: Worker processes serving this transport (0 = the parent itself).
    workers: int = 0

    def submit(self, task: Dict[str, object]) -> str:
        """Enqueue one task; returns its id."""
        raise NotImplementedError

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        """Block until any outstanding task completes; ``(task_id, payload)``.

        Raises:
            TimeoutError: no task completed within ``timeout``.
            TransportTaskError: the task raised inside its executor.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    # Shared/pooled transports outlive individual runs; per-run transports
    # are closed by the executor that created them.
    persistent: bool = False


# -- local -------------------------------------------------------------------
class LocalTransport(Transport):
    """In-process execution, one task per collect call.

    ``order="lifo"`` collects newest-first — deliberately out-of-order — so
    tests can prove the merges are arrival-order independent without racing
    real processes.
    """

    name = "local"

    def __init__(self, order: str = "fifo") -> None:
        if order not in ("fifo", "lifo"):
            raise ValueError(f"unknown order {order!r}; choose fifo or lifo")
        self._order = order
        self._pending: "deque[Tuple[str, Dict[str, object]]]" = deque()
        self._counter = 0

    def submit(self, task: Dict[str, object]) -> str:
        task_id = f"t{self._counter:06d}"
        self._counter += 1
        self._pending.append((task_id, task))
        return task_id

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        if not self._pending:
            raise TransportError("local transport has no outstanding tasks")
        task_id, task = (
            self._pending.popleft() if self._order == "fifo" else self._pending.pop()
        )
        with worker_context():
            payload = execute_task(task)
        return task_id, unwrap_payload(task_id, payload)


# -- mp ----------------------------------------------------------------------
class MpTransport(Transport):
    """The shared spawn-pool (:func:`repro.engine.pool.worker_pool`) behind
    the transport interface, sized by ``jobs``.

    Raises:
        TransportError: when the pool is unavailable (``jobs <= 1``, inside
            a pool worker, or spawn failed) — callers run inline.
    """

    name = "mp"

    def __init__(self, jobs: Optional[int] = None) -> None:
        jobs = resolve_jobs(jobs)
        pool = worker_pool(jobs)
        if pool is None:
            raise TransportError("worker pool unavailable (jobs<=1 or spawn failed)")
        self._pool = pool
        self.workers = jobs
        self._inflight: "deque[Tuple[str, object]]" = deque()
        self._counter = 0

    def submit(self, task: Dict[str, object]) -> str:
        task_id = f"t{self._counter:06d}"
        self._counter += 1
        self._inflight.append((task_id, self._pool.apply_async(execute_task, (task,))))
        return task_id

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        if not self._inflight:
            raise TransportError("mp transport has no outstanding tasks")
        task_id, handle = self._inflight.popleft()
        try:
            payload = handle.get(timeout=timeout)
        except Exception as err:
            # Worker-side exceptions and lost tasks surface uniformly so
            # collectors can retry the one unit inline.  multiprocessing
            # chains the worker-side traceback as a RemoteTraceback cause;
            # carry its text instead of throwing the cause away.
            cause = getattr(err, "__cause__", None)
            remote = (
                f"\n{cause}" if type(cause).__name__ == "RemoteTraceback" else ""
            )
            obs.event(
                "task_failed",
                transport=self.name,
                task_id=task_id,
                error=repr(err),
                traceback=str(cause) if remote else None,
            )
            raise TransportTaskError(
                f"task {task_id} failed in pool worker: {err!r}{remote}",
                task_id=task_id,
                transport=self.name,
            ) from err
        return task_id, unwrap_payload(task_id, payload)


# -- queue -------------------------------------------------------------------
SPOOL_DIRS = ("tasks", "claimed", "results", "workers", "events")
STOP_FILE = "stop"


def spool_events_dir(spool: str) -> str:
    """The spool subdirectory holding per-process JSONL event logs.

    Workers append their lifecycle events (joined, claimed, done, failed,
    exited) here — one ``*.jsonl`` file per process — giving a durable,
    distributed event log that survives the workers themselves.
    """
    return os.path.join(spool, "events")


def init_spool(spool: str) -> None:
    """Create the spool directory layout (idempotent)."""
    for sub in SPOOL_DIRS:
        os.makedirs(os.path.join(spool, sub), exist_ok=True)


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` so readers only ever see complete files."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def enqueue_task(spool: str, task_id: str, task: Dict[str, object]) -> None:
    """Serialise one task onto the spool queue."""
    payload = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
    write_atomic(os.path.join(spool, "tasks", f"{task_id}.task"), payload)


def claim_task(spool: str) -> Optional[Tuple[str, str]]:
    """Atomically claim the oldest queued task; ``(task_id, claimed_path)``.

    The rename is the mutual-exclusion point: exactly one claimant wins a
    task file, losers simply move on to the next.
    """
    tasks_dir = os.path.join(spool, "tasks")
    try:
        names = sorted(n for n in os.listdir(tasks_dir) if n.endswith(".task"))
    except FileNotFoundError:
        return None
    for name in names:
        source = os.path.join(tasks_dir, name)
        target = os.path.join(spool, "claimed", name)
        try:
            os.replace(source, target)
        except FileNotFoundError:
            continue  # someone else won the rename
        return name[: -len(".task")], target
    return None


def write_result(spool: str, task_id: str, payload: Tuple[str, object]) -> None:
    """Publish a task outcome — ``("ok", value)`` or ``("error", text)``."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    write_atomic(os.path.join(spool, "results", f"{task_id}.result"), blob)


def release_claim(spool: str, task_id: str) -> None:
    """Remove a finished task's claim and lease files."""
    for name in (f"{task_id}.task", f"{task_id}.lease"):
        try:
            os.remove(os.path.join(spool, "claimed", name))
        except FileNotFoundError:
            pass


def touch(path: str) -> None:
    """Refresh a heartbeat/lease file's mtime (creating it if needed)."""
    with open(path, "a"):
        os.utime(path, None)


def refresh(path: str) -> None:
    """Refresh an *existing* file's mtime; a deleted file stays deleted.

    Heartbeat threads must use this for lease files: racing ``touch``
    against the release that deletes the lease would resurrect it as a
    permanent orphan (task ids are never reused, so nothing would ever
    clean it up).
    """
    try:
        os.utime(path, None)
    except FileNotFoundError:
        pass


def run_claimed_task(spool: str, task_id: str, claimed_path: str) -> None:
    """Execute a claimed task file and publish its result (worker core).

    Any task exception is published as an ``("error", ...)`` payload rather
    than raised: a poisoned task must fail its submitter, not kill the
    worker or wedge the queue.  A claim file that vanished before it could
    be read is *not* a task failure — the submitter's lease retry took the
    task back (this claimant stalled past the lease timeout) and someone
    else owns it now, so the only correct move is to walk away silently.
    """
    import traceback

    try:
        with open(claimed_path, "rb") as handle:
            task = pickle.load(handle)
    except FileNotFoundError:
        return
    try:
        with worker_context():
            payload = ("ok", execute_task(task))
    except Exception:
        payload = ("error", traceback.format_exc())
        obs.event(
            "task_failed",
            transport="queue",
            task_id=task_id,
            pid=os.getpid(),
            traceback=payload[1],
        )
    injector = chaos_worker_injector()
    if injector is not None:
        if injector.should("enospc", task_id):
            # Simulated full disk: nothing is published and the claim is
            # deliberately kept — dropping it too would make the task
            # vanish entirely (no result, no stale claim), wedging the
            # parent forever.  Lease expiry recovers the task instead.
            obs.event(
                "chaos_injected", fault="enospc", task_id=task_id, pid=os.getpid()
            )
            return
        if injector.should("corrupt", task_id):
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            write_atomic(
                os.path.join(spool, "results", f"{task_id}.result"),
                injector.corrupt_bytes(blob, task_id),
            )
            obs.event(
                "chaos_injected", fault="corrupt", task_id=task_id, pid=os.getpid()
            )
            release_claim(spool, task_id)
            return
        if injector.should("dup", task_id):
            # Publish but never release the claim: unless the parent
            # consumes the result before the lease expires, the task is
            # re-enqueued, re-executed and delivered a second time.
            write_result(spool, task_id, payload)
            obs.event(
                "chaos_injected", fault="dup", task_id=task_id, pid=os.getpid()
            )
            return
    write_result(spool, task_id, payload)
    release_claim(spool, task_id)


class QueueTransport(Transport):
    """File-backed task queue with lease-based retry of lost tasks.

    Several consumers can share one spool (and its spawned workers) at the
    same time — during ATPG, the PODEM scheduler and the dropping fault
    simulator both have tasks in flight: :meth:`channel` hands each
    consumer its own :class:`QueueChannel` with private submit/collect
    bookkeeping, so one consumer can never swallow another's results.
    Using the transport's own ``submit``/``next_result`` directly is the
    single-consumer convenience path (it delegates to a default channel).

    Args:
        spool: spool directory to attach to; ``None`` creates a private
            temporary spool (removed on :meth:`close`).
        workers: local worker subprocesses to spawn (``None``: the resolved
            ``jobs`` for a private spool, 0 for an external one).
        jobs: worker-count fallback used when ``workers`` is ``None``.
        lease_timeout: seconds without a lease heartbeat before a claimed
            task is considered lost and re-enqueued (``None``: resolved via
            :func:`resolve_lease_timeout`).
        poll_interval: parent/worker poll period.
        self_drain_after: seconds without progress before the parent starts
            executing queued tasks itself even though live workers exist
            (``None``: ``lease_timeout``).  With no live workers the parent
            drains immediately.
        task_retries: per-task retry budget before quarantine (``None``:
            resolved via :func:`repro.cluster.retry.resolve_task_retries`).
    """

    name = "queue"
    persistent = True

    def __init__(
        self,
        spool: Optional[str] = None,
        workers: Optional[int] = None,
        jobs: Optional[int] = None,
        lease_timeout: Optional[float] = None,
        poll_interval: float = 0.02,
        self_drain_after: Optional[float] = None,
        task_retries: Optional[int] = None,
    ) -> None:
        jobs = resolve_jobs(jobs)
        self._owns_spool = spool is None
        self.spool = spool or tempfile.mkdtemp(prefix="repro-cluster-")
        init_spool(self.spool)
        if not self._owns_spool:
            # A stale stop file in an external spool (a previous operator
            # shutdown) would make every joining worker exit immediately;
            # attaching to submit work supersedes it.
            try:
                os.remove(os.path.join(self.spool, STOP_FILE))
            except FileNotFoundError:
                pass
        self.lease_timeout = resolve_lease_timeout(lease_timeout)
        self.task_retries = resolve_task_retries(task_retries)
        self.poll_interval = float(poll_interval)
        self.self_drain_after = (
            float(self_drain_after) if self_drain_after is not None else self.lease_timeout
        )
        self._channels = 0
        self._default_channel: Optional["QueueChannel"] = None
        self._procs: List[subprocess.Popen] = []
        self._last_sweep = 0.0
        self.drained = 0
        self.closed = False
        if workers is None:
            workers = jobs if self._owns_spool else 0
        self.workers = int(workers)
        for _ in range(self.workers):
            self._procs.append(self._spawn_worker())

    def channel(self) -> "QueueChannel":
        """A private submit/collect view over this spool for one consumer."""
        self._channels += 1
        return QueueChannel(self, self._channels)

    @property
    def _channel(self) -> "QueueChannel":
        if self._default_channel is None:
            self._default_channel = self.channel()
        return self._default_channel

    @property
    def retries(self) -> int:
        """Re-enqueued leases observed through the direct-use channel."""
        return self._channel.retries

    @property
    def quarantined(self) -> List[Dict[str, object]]:
        """Quarantine-report entries from the direct-use channel."""
        return self._channel.quarantined

    # -- worker management -------------------------------------------------
    def _spawn_worker(self) -> subprocess.Popen:
        env = dict(os.environ)
        src_dir = package_src_dir()
        parts = env.get("PYTHONPATH", "").split(os.pathsep)
        if src_dir not in parts:
            env["PYTHONPATH"] = os.pathsep.join(
                [src_dir] + [p for p in parts if p]
            )
        env[WORKER_ENV_VAR] = "1"
        if obs.enabled():
            # Propagate programmatic obs.enable() to freshly spawned queue
            # workers; REPRO_TRACE=1 in the environment passes through on
            # its own.  Same for the timeline tier, so worker-side span
            # intervals ride back even when only the parent turned it on.
            env[obs.TRACE_ENV_VAR] = "1"
            if obs.timeline_enabled():
                env[obs.TIMELINE_ENV_VAR] = "1"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--spool",
                self.spool,
                "--poll",
                str(max(0.01, self.poll_interval)),
                "--heartbeat",
                str(max(0.05, min(1.0, self.lease_timeout / 4))),
                # A parent that dies without writing the stop file (SIGKILL,
                # OOM) must not leave pollers behind forever: generously
                # idle-exit instead.  Normal runs never hit this — the stop
                # file lands at close().
                "--max-idle",
                str(max(60.0, 20.0 * self.lease_timeout)),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        obs.event(
            "worker_spawned", transport="queue", pid=proc.pid, spool=self.spool
        )
        return proc

    def _live_workers(self) -> int:
        """Workers with a fresh heartbeat file (local or remote).

        Freshly spawned local workers count as live while their process is
        running even before the first heartbeat lands — python startup takes
        long enough that the parent would otherwise drain the whole queue
        itself before any worker gets a chance to claim.
        """
        workers_dir = os.path.join(self.spool, "workers")
        now = time.time()
        live = 0
        try:
            names = os.listdir(workers_dir)
        except FileNotFoundError:
            names = []
        for name in names:
            try:
                age = now - os.path.getmtime(os.path.join(workers_dir, name))
            except FileNotFoundError:
                continue
            if age < self.lease_timeout:
                live += 1
        if live == 0:
            live = sum(1 for proc in self._procs if proc.poll() is None)
        return live

    # -- queue mechanics ----------------------------------------------------
    def _sweep_orphan_results(self) -> None:
        """Garbage-collect result files no consumer will ever claim.

        Orphans arise when a run aborts to its inline fallback while tasks
        are still executing, or when speculative chunks outlive their
        consumer; on a persistent shared spool they would otherwise
        accumulate forever.  The TTL is generous — any live consumer polls
        several orders of magnitude faster — and the sweep runs at most
        once per lease interval, so steady-state polling stays cheap.
        """
        now = time.time()
        if now - self._last_sweep < self.lease_timeout:
            return
        self._last_sweep = now
        ttl = 10 * self.lease_timeout
        results_dir = os.path.join(self.spool, "results")
        try:
            names = os.listdir(results_dir)
        except FileNotFoundError:
            return
        for name in names:
            path = os.path.join(results_dir, name)
            try:
                if now - os.path.getmtime(path) > ttl:
                    os.remove(path)
            except FileNotFoundError:
                continue

    def _drain_one(self) -> bool:
        """Execute one queued task in the parent (worker of last resort)."""
        claimed = claim_task(self.spool)
        if claimed is None:
            return False
        task_id, path = claimed
        obs.event("parent_drain", transport="queue", task_id=task_id)
        run_claimed_task(self.spool, task_id, path)
        self.drained += 1
        return True

    # Direct single-consumer surface (tests, the bench): one default channel.
    def submit(self, task: Dict[str, object]) -> str:
        return self._channel.submit(task)

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        return self._channel.next_result(timeout=timeout)

    def close(self) -> None:
        self.closed = True  # sibling channels fail fast instead of polling
        if self._owns_spool:
            # Private spool: tell (only) our own workers to exit.  External
            # spools are operator-managed — their stop file is the
            # operator's to write, and other parents may still be using it.
            try:
                write_atomic(os.path.join(self.spool, STOP_FILE), b"stop\n")
            except OSError:
                pass
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._procs = []
        if self._owns_spool:
            shutil.rmtree(self.spool, ignore_errors=True)


class QueueChannel(Transport):
    """One consumer's private submit/collect view over a shared spool.

    Channels share the spool directory, the spawned workers and the drain
    machinery of their parent :class:`QueueTransport`, but keep their own
    outstanding/consumed bookkeeping: a channel only ever consumes result
    files for task ids *it* submitted (ids are uuid-suffixed, so channels
    can never collide), leaving every other channel's results untouched on
    disk.  Lease retry is likewise scoped to the channel's own tasks.
    """

    name = "queue"
    persistent = True

    def __init__(self, parent: QueueTransport, number: int) -> None:
        self.parent = parent
        self._prefix = f"c{number}"
        self._counter = 0
        self._outstanding: Dict[str, Dict[str, object]] = {}
        self._consumed: set = set()
        self._claim_seen: Dict[str, float] = {}
        #: task_id -> accumulated failure records (retry budget bookkeeping).
        self._attempts: Dict[str, List[Dict[str, object]]] = {}
        #: task_id -> earliest re-enqueue time (exponential-backoff delay).
        self._requeue_at: Dict[str, float] = {}
        #: task_id -> when an unreadable result file was first seen.
        self._corrupt_seen: Dict[str, float] = {}
        #: Lease-expiry re-enqueues (legacy counter; budget lives in
        #: ``_attempts`` which also counts error and corrupt-result retries).
        self.retries = 0
        #: Quarantine-report entries for tasks that died for good.
        self.quarantined: List[Dict[str, object]] = []

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self.parent.workers

    @property
    def spool(self) -> str:
        return self.parent.spool

    def submit(self, task: Dict[str, object]) -> str:
        task_id = f"{self._prefix}t{self._counter:06d}-{uuid.uuid4().hex[:6]}"
        self._counter += 1
        try:
            enqueue_task(self.spool, task_id, task)
        except OSError as err:
            # An unwritable spool (deleted out from under us, full disk,
            # permissions) means this transport cannot make progress at
            # all; surface it as a transport failure so the degradation
            # ladder engages instead of a bare OSError killing the run.
            raise TransportError(
                f"queue spool unwritable at {self.spool}: {err}"
            ) from err
        self._outstanding[task_id] = task
        return task_id

    def _consume(self, task_id: str) -> None:
        """Mark ``task_id`` done and drop every piece of its bookkeeping."""
        self._outstanding.pop(task_id, None)
        self._consumed.add(task_id)
        self._claim_seen.pop(task_id, None)
        self._attempts.pop(task_id, None)
        self._requeue_at.pop(task_id, None)
        self._corrupt_seen.pop(task_id, None)
        # A finished task can leave an orphan claim (stalled worker whose
        # result we consumed anyway, chaos-injected unreleased claims);
        # since the id is consumed, lease retry will never look at it again
        # — GC it now so shared spools stay clean.
        release_claim(self.spool, task_id)

    def _handle_failure(
        self, task_id: str, kind: str, detail: Optional[str]
    ) -> Optional[Tuple[str, object]]:
        """Route one task failure through retry budget -> quarantine.

        Returns ``None`` when the task was scheduled for another attempt
        (or is already resolved), or the task's ``(task_id, payload)`` when
        the budget is exhausted and the inline quarantine re-execution
        succeeded.

        Raises:
            QuarantineError: budget exhausted and inline re-execution failed.
        """
        if task_id not in self._outstanding:
            return None
        failures = self._attempts.setdefault(task_id, [])
        failures.append(failure_record(kind, detail))
        if len(failures) <= self.parent.task_retries:
            delay = backoff_delay(len(failures), task_id)
            self._requeue_at[task_id] = time.time() + delay
            obs.event(
                "task_retry_scheduled",
                transport="queue",
                task_id=task_id,
                attempt=len(failures),
                reason=kind,
                delay_s=round(delay, 3),
            )
            return None
        return self._quarantine_and_run_inline(task_id, failures)

    def _quarantine_and_run_inline(
        self, task_id: str, failures: List[Dict[str, object]]
    ) -> Tuple[str, object]:
        """Budget exhausted: quarantine the envelope, then run it inline.

        Task results are pure functions of the task dict, so a successful
        inline execution completes the run bit-identically to a healthy
        cluster run; inline failure means the task itself is poisoned and
        the run aborts with the structured report.
        """
        task = self._outstanding[task_id]
        events = obs.events_mentioning(task_id)
        directory = quarantine_task(self.spool, task_id, task, failures, events)
        obs.event(
            "task_quarantined",
            transport="queue",
            task_id=task_id,
            attempts=len(failures),
            quarantine_dir=directory,
        )
        # Withdraw every live copy so no worker re-runs a quarantined task.
        for sub, suffix in (
            ("tasks", ".task"),
            ("claimed", ".task"),
            ("claimed", ".lease"),
        ):
            try:
                os.remove(os.path.join(self.spool, sub, f"{task_id}{suffix}"))
            except OSError:
                pass
        try:
            with worker_context():
                payload = execute_task(task)
        except Exception:
            import traceback

            failures.append(failure_record("inline_failed", traceback.format_exc()))
            entry = quarantine_entry(task_id, task, failures, directory)
            quarantine_task(self.spool, task_id, task, failures, events)
            self.quarantined.append(entry)
            self._consume(task_id)
            raise QuarantineError(
                format_quarantine_report([entry]),
                task_id=task_id,
                transport="queue",
                report=[entry],
            ) from None
        self._consume(task_id)
        obs.event("task_recovered_inline", transport="queue", task_id=task_id)
        return task_id, unwrap_payload(task_id, payload)

    def _flush_requeues(self) -> None:
        """Re-enqueue retried tasks whose backoff delay has elapsed."""
        if not self._requeue_at:
            return
        now = time.time()
        for task_id, ready_at in list(self._requeue_at.items()):
            if now < ready_at:
                continue
            del self._requeue_at[task_id]
            task = self._outstanding.get(task_id)
            if task is None:
                continue  # resolved while waiting (late result arrived)
            enqueue_task(self.spool, task_id, task)

    def _scan_results(self) -> Optional[Tuple[str, object]]:
        results_dir = os.path.join(self.spool, "results")
        try:
            names = sorted(n for n in os.listdir(results_dir) if n.endswith(".result"))
        except FileNotFoundError:
            return None
        for name in names:
            task_id = name[: -len(".result")]
            path = os.path.join(results_dir, name)
            if task_id not in self._outstanding:
                if task_id in self._consumed:
                    # Duplicate delivery (a retried task's first execution
                    # also finished): clean up our own leftover.
                    obs.event(
                        "duplicate_result_dropped",
                        transport="queue",
                        task_id=task_id,
                    )
                    try:
                        os.remove(path)
                    except FileNotFoundError:
                        pass
                # Another channel's result: not ours to touch.
                continue
            try:
                with open(path, "rb") as handle:
                    loaded = pickle.load(handle)
                status, value = loaded
            except FileNotFoundError:
                continue  # another poll consumed it between listdir and open
            except (
                EOFError,
                pickle.UnpicklingError,
                AttributeError,
                ImportError,
                IndexError,
                TypeError,
                ValueError,
            ) as err:
                # Unreadable envelope.  Grace-period first: on a non-atomic
                # network filesystem this is what a publisher mid-write
                # looks like, and the complete file lands moments later.
                # An envelope still unreadable after the grace period is
                # genuinely corrupt (torn write before a crash, truncation
                # by a full disk): route the task through retry/quarantine
                # instead of crashing — or worse, silently spinning on —
                # the drain loop.
                first_seen = self._corrupt_seen.setdefault(task_id, time.time())
                grace = max(0.25, 4 * self.parent.poll_interval)
                if time.time() - first_seen <= grace:
                    continue
                self._corrupt_seen.pop(task_id, None)
                obs.event(
                    "result_corrupt",
                    transport="queue",
                    task_id=task_id,
                    error=repr(err),
                )
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                release_claim(self.spool, task_id)
                recovered = self._handle_failure(
                    task_id, "result_corrupt", repr(err)
                )
                if recovered is not None:
                    return recovered
                continue
            self._corrupt_seen.pop(task_id, None)
            if status == "error":
                # Resolve the failure *before* consuming: a retried task
                # must stay outstanding so its re-execution is collected.
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
                release_claim(self.spool, task_id)
                obs.event(
                    "task_failed",
                    transport="queue",
                    task_id=task_id,
                    traceback=value,
                )
                recovered = self._handle_failure(task_id, "task_error", value)
                if recovered is not None:
                    return recovered
                continue
            self._consume(task_id)
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
            return task_id, unwrap_payload(task_id, value)
        return None

    def _requeue_stale_claims(self) -> Optional[Tuple[str, object]]:
        """Expire stale leases into the retry/quarantine path.

        Returns a ``(task_id, payload)`` only when a task exhausted its
        budget on lease expiries and the inline quarantine re-execution
        produced its result.
        """
        claimed_dir = os.path.join(self.spool, "claimed")
        now = time.time()
        try:
            names = [n for n in os.listdir(claimed_dir) if n.endswith(".task")]
        except FileNotFoundError:
            return None
        for name in names:
            task_id = name[: -len(".task")]
            if task_id not in self._outstanding or task_id in self._requeue_at:
                continue
            lease = os.path.join(claimed_dir, f"{task_id}.lease")
            try:
                last_beat = os.path.getmtime(lease)
            except FileNotFoundError:
                # Claimed but never leased (claimant died instantly): age it
                # from when the parent first noticed the claim.
                last_beat = self._claim_seen.setdefault(task_id, now)
            if now - last_beat <= self.parent.lease_timeout:
                continue
            obs.event(
                "lease_expired",
                transport="queue",
                task_id=task_id,
                stale_s=round(now - last_beat, 3),
            )
            source = os.path.join(claimed_dir, name)
            try:
                os.remove(source)
            except FileNotFoundError:
                continue  # the claimant finished after all
            try:
                os.remove(lease)
            except FileNotFoundError:
                pass
            self._claim_seen.pop(task_id, None)
            self.retries += 1
            obs.event("task_retried", transport="queue", task_id=task_id)
            recovered = self._handle_failure(
                task_id, "lease_expired", f"no heartbeat for {now - last_beat:.3f}s"
            )
            if recovered is not None:
                return recovered
        return None

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        if not self._outstanding:
            raise TransportError("queue transport has no outstanding tasks")
        parent = self.parent
        deadline = time.time() + timeout
        last_progress = time.time()
        while True:
            if parent.closed:
                # A sibling consumer's failure discarded the shared spool;
                # fail fast so this consumer's inline fallback engages now
                # instead of after the full collect timeout.
                raise TransportError("queue transport was closed")
            if not os.path.isdir(os.path.join(self.spool, "tasks")):
                # Spool deleted out from under us (operator GC, tmpdir
                # cleanup): no result can ever arrive — fail fast so the
                # degradation ladder engages instead of the full timeout.
                raise TransportError(f"queue spool vanished: {self.spool}")
            found = self._scan_results()
            if found is not None:
                return found
            self._flush_requeues()
            recovered = self._requeue_stale_claims()
            if recovered is not None:
                return recovered
            parent._sweep_orphan_results()
            now = time.time()
            if (
                parent._live_workers() == 0
                or now - last_progress > parent.self_drain_after
            ):
                if parent._drain_one():
                    continue
            if now > deadline:
                raise TimeoutError(
                    f"no queue result within {timeout:.0f}s "
                    f"({len(self._outstanding)} outstanding)"
                )
            time.sleep(parent.poll_interval)


# -- resolution --------------------------------------------------------------
def default_transport_name() -> str:
    """The transport spec used when none is requested explicitly."""
    if _default_name is not None:
        return _default_name
    return envvars.TRANSPORT.read() or DEFAULT_TRANSPORT_NAME


def set_default_transport(spec: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the process-wide default transport spec.

    Returns:
        The previous override, so callers can restore it (the experiment
        runner's ``--transport`` flag uses this exactly like ``--backend``).

    Raises:
        ValueError: for unknown transport names.
    """
    global _default_name
    if spec is not None:
        parse_transport_spec(spec)  # validate eagerly
    previous = _default_name
    _default_name = spec
    return previous


def parse_transport_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a transport spec into ``(name, queue_spool_dir)``.

    Raises:
        ValueError: for names outside :data:`TRANSPORTS`.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in TRANSPORTS:
        raise ValueError(f"unknown transport {spec!r}; choose from {TRANSPORTS}")
    if rest and name != "queue":
        raise ValueError(f"only the queue transport takes a spool dir, got {spec!r}")
    spool = rest.strip() or None
    if name == "queue" and spool is None:
        spool = envvars.QUEUE_DIR.read()
    return name, spool


def _queue_workers(owns_spool: bool, jobs: int) -> int:
    workers = envvars.QUEUE_WORKERS.read()
    if workers is not None:
        return workers
    return jobs if owns_spool else 0


#: (name, spool, workers, jobs) -> shared transport; queue transports spawn
#: worker processes, so they are reused across runs like the mp pool is.
_shared: Dict[Tuple, Transport] = {}


def resolve_transport(
    spec: Optional[str] = None, jobs: Optional[int] = None
) -> Transport:
    """Build (or reuse) the transport for a spec; see the module docstring.

    Raises:
        ValueError: for unknown transport names.
        TransportError: when the transport cannot be built (e.g. the mp
            pool is unavailable) — callers fall back to inline execution.
    """
    name, spool = parse_transport_spec(spec or default_transport_name())
    jobs = resolve_jobs(jobs)
    if name == "local":
        return LocalTransport()
    if name == "mp":
        return MpTransport(jobs=jobs)
    workers = _queue_workers(owns_spool=spool is None, jobs=jobs)
    # The resolved lease timeout participates in the share key so a changed
    # REPRO_LEASE_TIMEOUT / set_default_lease_timeout builds a fresh
    # transport instead of silently reusing one with the old timeout.
    key = (name, spool, workers, jobs, resolve_lease_timeout())
    shared = _shared.get(key)
    if shared is None:
        shared = QueueTransport(spool=spool, workers=workers, jobs=jobs)
        _shared[key] = shared
    # Each consumer gets a private channel: during ATPG the PODEM scheduler
    # and the dropping fault simulator both hold tasks in flight on this
    # spool concurrently, and must never consume each other's results.
    return shared.channel()


def discard_transport(transport: Transport) -> None:
    """Drop a failed transport so the next run starts fresh.

    A broken mp transport poisons the shared pool (later pool requests in
    this process get ``None`` and run inline); a broken queue transport is
    closed and evicted from the shared set so the next resolution builds a
    new spool.
    """
    if isinstance(transport, MpTransport):
        from repro.engine.pool import discard_broken_pool

        discard_broken_pool()
        return
    if isinstance(transport, QueueChannel):
        transport = transport.parent
    for key, value in list(_shared.items()):
        if value is transport:
            del _shared[key]
    try:
        transport.close()
    except Exception:  # repro: allow[R6] discard runs on already-broken
        pass  # transports; a failing close is the expected case here


def shutdown_shared_transports() -> None:
    """Close every shared transport (registered with :mod:`atexit`)."""
    for transport in list(_shared.values()):
        try:
            transport.close()
        except Exception:  # repro: allow[R6] atexit teardown: workers and
            pass  # the event spool may already be gone mid-interpreter-exit
    _shared.clear()


import atexit

atexit.register(shutdown_shared_transports)
