"""Failure injection on the shared worker pool that carries the runner's cells.

``run_all(jobs > 1)`` submits every (artifact x benchmark) cell with
``apply_async`` to the shared spawn pool of :mod:`repro.engine.pool`.  A cell
that raises in its worker must surface in the parent with the worker's
message and traceback, be recorded against its task id, and leave the pool
healthy for the next run.  Parity of the pooled tables with a serial run
lives in ``test_sharded.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import pool as engine_pool
from repro.engine.backend import default_backend_name
from repro.engine.pool import worker_pool
from repro.obs import recorder as obs

#: A cell naming an artefact no worker knows: it raises wherever it runs.
POISONED_CELL = ("table", "no-such-kind", ["b01"])


class TestQueueFailureInjection:
    def test_poisoned_task_raises_task_error(self):
        from repro.experiments import runner

        pool = worker_pool(2)
        if pool is None:
            pytest.skip("worker pool unavailable in this environment")
        args = (POISONED_CELL, 0, default_backend_name(), (False, False))
        handle = pool.apply_async(runner._pool_cell, args)
        with pytest.raises(ValueError, match="no-such-kind") as excinfo:
            handle.get(timeout=30.0)
        # The worker's own traceback travels with the error.
        cause = excinfo.value.__cause__
        assert type(cause).__name__ == "RemoteTraceback"
        assert "_collect_impl" in str(cause)

        # The runner records the failure against the cell's task id before
        # the in-process re-run raises the same error.
        obs.enable()
        try:
            with pytest.raises(ValueError, match="no-such-kind"):
                runner._pooled_parts(pool, [("table", "1", ["b01"]), POISONED_CELL], 0)
            failures = [
                event
                for event in obs.snapshot()["events"]
                if event["kind"] == "task_failed"
            ]
        finally:
            obs.disable()
        assert [event["task_id"] for event in failures] == ["t000001"]
        assert "no-such-kind" in failures[0]["error"]

        # A task that raised leaves the pool healthy for the next run.
        assert worker_pool(2) is pool
        follow_up = pool.apply_async(engine_pool._ping)
        assert follow_up.get(timeout=30.0) != os.getpid()
