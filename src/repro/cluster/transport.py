"""Transports carrying the experiment runner's cells to their executors.

A *transport* is a tiny submit/collect interface over
:mod:`repro.cluster.protocol` task dicts:

* :class:`MpTransport` — tasks ride the shared spawn-safe process pool
  (:mod:`repro.engine.pool`).  This is what ``run_all(jobs > 1)`` builds.
* :class:`LocalTransport` — tasks execute in-process, one per
  :meth:`~Transport.next_result` call.  It is the tests' deterministic
  fake for ``mp`` (``order="lifo"`` collects out of order on purpose).
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Dict, Optional, Tuple

from repro.cluster.protocol import execute_task, unwrap_payload
from repro.engine.pool import (
    CHUNK_TIMEOUT,
    discard_broken_pool,
    resolve_jobs,
    worker_pool,
)
from repro.obs import recorder as obs


class TransportError(RuntimeError):
    """A transport cannot be built or has failed; callers fall back inline."""


class TransportTaskError(RuntimeError):
    """A task raised in its executor; carries the remote traceback text.

    ``task_id`` identifies the failed task so collectors that can retry a
    single unit inline (the experiment runner's cells) know which one died
    without abandoning the rest of the batch; ``transport`` names the
    transport that surfaced the failure so fallback handlers can attach
    both to their failure events instead of swallowing the cause.  The
    transport itself is still healthy: only the task failed.
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


class Transport:
    """Submit/collect interface every transport implements.

    Results may come back in any order; consumers must key merges on the
    returned task id (the runner merges cells in fixed cell order).
    """

    name: str = "?"

    def submit(self, task: Dict[str, object]) -> str:
        """Enqueue one task; returns its id."""
        raise NotImplementedError

    def next_result(self, timeout: float = CHUNK_TIMEOUT) -> Tuple[str, object]:
        """Block until any outstanding task completes; ``(task_id, payload)``.

        Raises:
            TransportError: no task completed within ``timeout``.
            TransportTaskError: the task raised inside its executor.
        """
        raise NotImplementedError


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
        return task_id, unwrap_payload(task_id, execute_task(task))


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
        except multiprocessing.TimeoutError:
            # A lost task (its worker died) never returns: the pool, not
            # the task, is what failed.
            raise TransportError(
                f"task {task_id} returned no result within {timeout:.0f}s"
            ) from None
        except Exception as err:
            # Worker-side exceptions surface uniformly so collectors can
            # retry the one unit inline.  multiprocessing chains the
            # worker-side traceback as a RemoteTraceback cause; carry its
            # text instead of throwing the cause away.
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


def discard_transport(transport: Transport, err: BaseException) -> None:
    """Retire a transport whose run failed with ``err``.

    A task that raised leaves its pool healthy, so only the run falls back.
    Anything else from an mp transport — a lost task, a pool that stopped
    running — terminates the shared pools, and the rest of the process runs
    inline.
    """
    if isinstance(transport, MpTransport) and not isinstance(err, TransportTaskError):
        discard_broken_pool()
