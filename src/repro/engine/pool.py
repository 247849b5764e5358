"""Worker-count resolution and the shared spawn-safe process pool.

The one multi-process path in the package is the experiment runner's
``--jobs N``: it hands each (artifact x benchmark) cell to the pool kept
here with ``apply_async``.  The worker count resolves through one chain
(explicit argument > :func:`set_default_jobs` > ``REPRO_JOBS`` >
``os.cpu_count()``), and one lazily created spawn-context pool is kept per
worker count.  Fault grading
and PODEM never use the pool.

A pool is created on first use and shut down cleanly at interpreter exit.
Whenever a pool cannot be used — ``jobs=1``, running inside a pool worker
already, spawn failure, workers that cannot import the package, or a pool
retired by :func:`discard_broken_pool` — callers receive ``None`` and must
fall back to in-process execution, so results never depend on the
environment being pool-friendly.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Dict, Optional

from repro import envvars
from repro.envvars import parse_jobs
from repro.obs import recorder as obs

#: Environment variable sizing the worker pool (``--jobs`` on the runner).
JOBS_ENV_VAR = envvars.JOBS.name

#: Seconds to wait for the pool's import smoke test / one chunk result.
PING_TIMEOUT = 30.0
CHUNK_TIMEOUT = 600.0

_default_jobs: Optional[int] = None


def default_jobs() -> int:
    """Worker count used when none is requested explicitly."""
    if _default_jobs is not None:
        return _default_jobs
    env = envvars.JOBS.read()
    if env is not None:
        return env
    return os.cpu_count() or 1


def set_default_jobs(jobs: Optional[int]) -> Optional[int]:
    """Set (or with ``None`` clear) the process-wide default worker count.

    Returns:
        The previous override, so callers can restore it (the experiment
        runner's ``--jobs`` flag sets it for one run and restores it).

    Raises:
        ValueError: for non-integer or non-positive counts.
    """
    global _default_jobs
    previous = _default_jobs
    _default_jobs = parse_jobs(jobs) if jobs is not None else None
    return previous


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count (explicit arg > default > env > cpu count).

    Raises:
        ValueError: for non-integer or non-positive explicit counts.
    """
    if jobs is not None:
        return parse_jobs(jobs)
    return default_jobs()


# -- worker pool -------------------------------------------------------------
#: jobs -> live pool.  Pools are keyed by size so a caller asking for a
#: different worker count gets its own pool instead of resizing one that
#: may still have tasks in flight.
_pools: Dict[int, object] = {}
_pool_broken = False


def _ping() -> int:
    """Pool smoke test: proves workers can import this module."""
    return os.getpid()


def package_src_dir() -> str:
    """Directory that must be on ``sys.path`` for workers to import repro."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _spawn_main_is_safe() -> bool:
    """Whether spawned children can re-import the parent's ``__main__``.

    Spawn re-runs the parent's main module in every worker; when that module
    has a ``__file__`` that is not a real path (``<stdin>``, interactive
    sessions), every worker dies on startup — detect that here instead of
    burning the ping timeout on a respawn loop.
    """
    import sys

    main_module = sys.modules.get("__main__")
    main_file = getattr(main_module, "__file__", None)
    return main_file is None or os.path.exists(main_file)


def worker_pool(jobs: int):
    """The shared spawn-context pool of ``jobs`` workers, or ``None``.

    ``None`` is returned — and callers must fall back to in-process
    execution — when ``jobs <= 1``, when called from inside a pool worker
    (never nest pools), or when a pool failed once already.  A live pool is
    never terminated to serve a request for another size.
    """
    global _pool_broken
    jobs = max(1, int(jobs))
    if jobs <= 1 or _pool_broken:
        return None
    if multiprocessing.parent_process() is not None:
        return None
    pool = _pools.get(jobs)
    if pool is not None:
        return pool
    if not _spawn_main_is_safe():
        return None

    # Spawned children re-import this module from scratch; when the package
    # is only importable through the parent's sys.path (the usual
    # ``PYTHONPATH=src`` development setup), export that path to them.
    previous = os.environ.get("PYTHONPATH")
    src_dir = package_src_dir()
    parts = previous.split(os.pathsep) if previous else []
    if src_dir not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_dir] + parts)
    pool = None
    try:
        pool = multiprocessing.get_context("spawn").Pool(processes=jobs)
        pool.apply_async(_ping).get(timeout=PING_TIMEOUT)
    except Exception as err:
        obs.event("pool_unavailable", detail=repr(err))
        _pool_broken = True
        if pool is not None:
            pool.terminate()
            pool.join()
        return None
    finally:
        if previous is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = previous
    _pools[jobs] = pool
    return pool


def shutdown_worker_pool() -> None:
    """Terminate every shared pool (registered with :mod:`atexit`)."""
    while _pools:
        _, pool = _pools.popitem()
        pool.terminate()
        pool.join()


def discard_broken_pool() -> None:
    """Terminate the pools after a pool failure (a lost task, a pool that
    stopped running) and run inline for the rest of the process.

    A task that merely raised in its worker is not a pool failure and must
    not land here: the pool that ran it is healthy.
    """
    global _pool_broken
    shutdown_worker_pool()
    _pool_broken = True


atexit.register(shutdown_worker_pool)
