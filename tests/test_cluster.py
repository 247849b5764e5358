"""Tests for the transports that carry the experiment runner's cells.

``run_all(jobs > 1)`` submits every (artifact x benchmark) cell to an
``mp`` transport (the shared spawn pool of :mod:`repro.engine.pool`) and
merges the results in fixed cell order.  The suite checks that the merged
tables equal a serial run for any worker count, for out-of-order and
duplicated deliveries (over the in-process ``LocalTransport`` fake) and over
the real pool, plus the transport's failure surface: a task that raised in
a worker leaves the pool healthy, a lost transport retires the pool so later
runs go inline at once, and the retired ``--transport`` flag is rejected.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.cluster import LocalTransport, MpTransport, TransportError, TransportTaskError
from repro.experiments.report import render_table

#: Two independent cells (artefact 1 is graded per benchmark).
ARTIFACTS = ["1"]
BENCHMARKS = ["b01", "b03"]


def _rendered(results):
    return {
        artifact: [render_table(table) for table in tables]
        for artifact, tables in results.items()
    }


def _serial_report():
    from repro.experiments.runner import run_all

    return _rendered(run_all(ARTIFACTS, BENCHMARKS, seed=0, jobs=1))


def _install(monkeypatch, make_transport):
    """Make the runner build ``make_transport(jobs)``; returns what it built."""
    from repro.experiments import runner

    built = []

    def factory(jobs=None):
        transport = make_transport(jobs)
        built.append(transport)
        return transport

    monkeypatch.setattr(runner, "MpTransport", factory)
    return built


class CountingLocalTransport(LocalTransport):
    """The in-process fake, counting the cells submitted to it."""

    def __init__(self, order="fifo"):
        super().__init__(order)
        self.submitted = 0

    def submit(self, task):
        self.submitted += 1
        return super().submit(task)


class TestLocalTransportParity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parity_for_any_worker_count(self, jobs, monkeypatch):
        from repro.experiments.runner import run_all

        reference = _serial_report()
        built = _install(monkeypatch, lambda jobs: CountingLocalTransport())
        result = _rendered(run_all(ARTIFACTS, BENCHMARKS, seed=0, jobs=jobs))
        assert result == reference
        if jobs == 1:
            assert built == []
        else:
            assert [transport.submitted for transport in built] == [len(BENCHMARKS)]

    def test_out_of_order_results_merge_identically(self, monkeypatch):
        """LIFO collection proves the cell merge is arrival-order independent."""
        from repro.experiments.runner import run_all

        reference = _serial_report()
        built = _install(monkeypatch, lambda jobs: CountingLocalTransport("lifo"))
        result = _rendered(run_all(ARTIFACTS, BENCHMARKS, seed=0, jobs=2))
        assert result == reference
        assert [transport.submitted for transport in built] == [len(BENCHMARKS)]

    def test_duplicate_deliveries_are_idempotent(self, monkeypatch):
        from repro.experiments.runner import run_all

        class DuplicatingTransport(CountingLocalTransport):
            """Delivers every result twice (a duplicate delivery)."""

            def __init__(self):
                super().__init__()
                self._replay = None
                self.delivered = 0

            def next_result(self, timeout=30.0):
                self.delivered += 1
                if self._replay is not None:
                    out, self._replay = self._replay, None
                    return out
                out = super().next_result(timeout)
                self._replay = out
                return out

        reference = _serial_report()
        built = _install(monkeypatch, lambda jobs: DuplicatingTransport())
        result = _rendered(run_all(ARTIFACTS, BENCHMARKS, seed=0, jobs=2))
        assert result == reference
        # The first cell arrived twice before the second cell's result.
        assert [transport.delivered for transport in built] == [len(BENCHMARKS) + 1]


class TestMpTransportParity:
    def test_parity_over_shared_pool(self, monkeypatch):
        from repro.experiments.runner import run_all

        reference = _serial_report()

        def make_transport(jobs):
            transport = MpTransport(jobs=jobs)
            submitted.append(0)
            real_submit = transport.submit

            def submit(task):
                submitted[-1] += 1
                return real_submit(task)

            transport.submit = submit
            return transport

        submitted = []
        _install(monkeypatch, make_transport)
        result = _rendered(run_all(ARTIFACTS, BENCHMARKS, seed=0, jobs=2))
        if not submitted:
            pytest.skip("worker pool unavailable in this environment")
        assert submitted == [len(BENCHMARKS)]
        assert result == reference


class TestQueueFailureInjection:
    def test_poisoned_task_raises_task_error(self):
        try:
            transport = MpTransport(jobs=2)
        except TransportError:
            pytest.skip("worker pool unavailable in this environment")
        task_id = transport.submit({"kind": "no-such-kind"})
        with pytest.raises(TransportTaskError) as excinfo:
            transport.next_result(timeout=30.0)
        assert excinfo.value.task_id == task_id
        assert excinfo.value.transport == "mp"
        assert "no-such-kind" in str(excinfo.value)
        # A task that raised leaves the pool healthy for the next run.
        follow_up = transport.submit({"kind": "echo", "payload": 7})
        assert transport.next_result(timeout=30.0) == (follow_up, 7)


class LostPoolTransport(MpTransport):
    """An ``mp`` transport whose pool loses every task, without processes.

    Construction refuses a retired pool exactly like the real transport
    (``worker_pool`` returns ``None`` once ``discard_broken_pool`` ran).
    """

    built = 0

    def __init__(self, jobs=None):
        from repro.engine import pool

        if pool._pool_broken:
            raise TransportError("worker pool unavailable")
        type(self).built += 1
        self._inflight = deque()
        self._counter = 0

    def submit(self, task):
        task_id = f"t{self._counter:06d}"
        self._counter += 1
        return task_id

    def next_result(self, timeout=30.0):
        raise TransportError("task t000000 returned no result within 30s")


class TestRunnerTransport:
    def test_bad_transport_flag_rejected_at_cli(self, capsys):
        # The cells always ride the mp transport; the old selector is gone
        # and fails as an unknown argument.
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--transport", "local", "--artifacts", "1", "--benchmarks", "b01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --transport" in captured.err
        assert captured.out == ""

    def test_lost_transport_retires_the_pool(self, monkeypatch):
        from repro.cluster import transport as transport_module
        from repro.engine import pool
        from repro.experiments import runner
        from repro.experiments.report import render_table

        # Retire nothing real: the spy sees an empty pool table and the
        # broken flag is restored after the test.
        monkeypatch.setattr(pool, "_pools", {})
        monkeypatch.setattr(pool, "_pool_broken", False)
        retired = []
        real_discard = transport_module.discard_broken_pool

        def spy():
            retired.append(True)
            real_discard()

        monkeypatch.setattr(transport_module, "discard_broken_pool", spy)
        monkeypatch.setattr(runner, "MpTransport", LostPoolTransport)
        monkeypatch.setattr(LostPoolTransport, "built", 0)

        def report(results):
            return [render_table(table) for table in results["1"]]

        serial = runner.run_all(["1"], ["b01"], seed=0, jobs=1)
        first = runner.run_all(["1"], ["b01"], seed=0, jobs=2)
        assert retired == [True]
        assert pool._pool_broken
        second = runner.run_all(["1"], ["b01"], seed=0, jobs=2)
        # The retired pool refused the second transport: that run was inline.
        assert LostPoolTransport.built == 1
        assert retired == [True]
        assert report(first) == report(second) == report(serial)
