"""Cluster ATPG determinism: cube generation over any transport.

``generate_test_cubes`` under the cluster backend fans per-fault PODEM runs
over the resolved transport; the contract is the pooled ``mp`` suite's
(``tests/test_atpg_sharded.py``), extended across transports: the full
:class:`~repro.atpg.tpg.ATPGResult` — cube matrix, cube names/order,
fault->cube-index map, untestable/aborted classification — is
*byte-identical* to a serial run for every transport, worker count,
arrival order and transport failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.podem import PodemEngine
from repro.atpg.tpg import _podem_scheduler, generate_test_cubes
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm
from repro.cluster import (
    ClusterPodemScheduler,
    LocalTransport,
    MpTransport,
    TransportError,
    set_default_transport,
)
from repro.engine.backend import get_backend

MEDIUM_KWARGS = dict(max_faults=90, backtrack_limit=20, seed=2)


@pytest.fixture(scope="module")
def medium_circuit():
    return generate_circuit(CircuitSpec("cluster_atpg_med", 10, 14, 260, seed=3))


@pytest.fixture(scope="module")
def medium_baseline(medium_circuit):
    """One serial reference run every transport variant is compared against."""
    return generate_test_cubes(medium_circuit, **MEDIUM_KWARGS)


@pytest.fixture
def local_default_transport():
    previous = set_default_transport("local")
    yield
    set_default_transport(previous)


def _assert_same_atpg(a, b, context=""):
    assert np.array_equal(a.cubes.matrix, b.cubes.matrix), context
    assert a.cubes.names == b.cubes.names, context
    assert list(a.detected_faults.items()) == list(b.detected_faults.items()), context
    assert a.untestable_faults == b.untestable_faults, context
    assert a.aborted_faults == b.aborted_faults, context
    assert a.total_faults == b.total_faults, context


class TestTransportInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_local_transport_matches_serial(
        self, jobs, medium_circuit, medium_baseline, local_default_transport
    ):
        result = generate_test_cubes(
            medium_circuit, backend="cluster", jobs=jobs, **MEDIUM_KWARGS
        )
        _assert_same_atpg(medium_baseline, result, f"local jobs={jobs}")

    def test_mp_transport_matches_serial(self, medium_circuit, medium_baseline):
        result = generate_test_cubes(
            medium_circuit, backend="cluster", jobs=2, **MEDIUM_KWARGS
        )
        _assert_same_atpg(medium_baseline, result, "mp transport")

    def test_queue_transport_matches_serial(self, medium_circuit):
        try:
            transport = MpTransport(jobs=2)
        except TransportError:
            pytest.skip("worker pool unavailable in this environment")
        program = get_backend("cluster").compiled_program(medium_circuit)
        # Drive the scheduler surface directly so a pinned mp transport
        # instance is the one used, whatever REPRO_TRANSPORT says.
        engine = PodemEngine(medium_circuit, backtrack_limit=20, mode="compiled")
        faults = collapse_faults(medium_circuit)
        stride = len(faults) / 90
        faults = [faults[int(i * stride)] for i in range(90)]
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=20,
            transport=transport,
            jobs=2,
        )
        assert scheduler.pooled
        assert scheduler.stats["transport"] == "mp"
        for index, fault in enumerate(faults):
            expected = engine.generate(fault)
            status, bits, backtracks, decisions = scheduler.fetch(index)
            assert status == expected.status, fault
            assert backtracks == expected.backtracks, fault
            assert decisions == expected.decisions, fault
            if expected.detected:
                assert list(bits) == list(expected.cube.bits), fault
        assert scheduler.stats["mode"] == "cluster"


class TestSchedulerMachinery:
    def test_cluster_backend_engages_scheduler(self, medium_circuit, local_default_transport):
        engine = PodemEngine(medium_circuit, backend="cluster", mode="compiled")
        faults = collapse_faults(medium_circuit)
        scheduler = _podem_scheduler(engine, faults, jobs=2)
        assert isinstance(scheduler, ClusterPodemScheduler)
        assert scheduler.stats["mode"] == "cluster"
        assert scheduler.stats["transport"] == "local"

    def test_drop_broadcast_skips_submissions(self, medium_circuit):
        program = get_backend("cluster").compiled_program(medium_circuit)
        faults = collapse_faults(medium_circuit)
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=20,
            transport=LocalTransport(),
            jobs=2,
        )
        assert scheduler.pooled
        # Drop a fault owed by a later chunk, then force every chunk through.
        drop_index = len(faults) - 1
        scheduler.drop(drop_index)
        for index in range(len(faults) - 1):
            scheduler.fetch(index)
        assert scheduler.stats["dropped_submissions"] >= 1

    def test_transport_failure_degrades_inline(self, medium_circuit, medium_baseline):
        class ExplodingTransport(LocalTransport):
            def next_result(self, timeout=30.0):
                raise RuntimeError("transport lost")

        program = get_backend("cluster").compiled_program(medium_circuit)
        faults = collapse_faults(medium_circuit)
        stride = len(faults) / 90
        faults = [faults[int(i * stride)] for i in range(90)]
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=20,
            transport=ExplodingTransport(),
            jobs=2,
        )
        assert scheduler.pooled
        engine = PodemEngine(medium_circuit, backtrack_limit=20, mode="compiled")
        for index, fault in enumerate(faults):
            expected = engine.generate(fault)
            status, bits, backtracks, _ = scheduler.fetch(index)
            assert status == expected.status, fault
            assert backtracks == expected.backtracks, fault
        assert scheduler.stats["mode"] == "inline"
        assert not scheduler.pooled

    def test_failed_submit_degrades_without_losing_the_chunk(
        self, monkeypatch, medium_circuit
    ):
        """A chunk whose submit raises is re-run in process, as is every
        fault after it — no result goes missing."""
        import repro.cluster.atpg as cluster_atpg

        class SubmitOnceTransport(LocalTransport):
            name = "mp"

            def __init__(self):
                super().__init__()
                self.submits = 0

            def submit(self, task):
                self.submits += 1
                if self.submits > 1:
                    raise ValueError("Pool not running")
                return super().submit(task)

        monkeypatch.setattr(
            cluster_atpg,
            "resolve_transport",
            lambda name=None, jobs=None: SubmitOnceTransport(),
        )
        program = get_backend("cluster").compiled_program(medium_circuit)
        faults = collapse_faults(medium_circuit)
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=20,
            transport="mp",
            jobs=2,
        )
        engine = PodemEngine(medium_circuit, backtrack_limit=20, mode="compiled")
        for index, fault in enumerate(faults):
            expected = engine.generate(fault)
            status, bits, backtracks, _ = scheduler.fetch(index)
            assert status == expected.status, fault
            assert backtracks == expected.backtracks, fault
        assert scheduler.stats["mode"] == "inline"
        assert not scheduler.pooled

    def test_dict_mode_never_schedules(self):
        circuit = b01_like_fsm()
        engine = PodemEngine(circuit, mode="dict")
        faults = collapse_faults(circuit)
        assert _podem_scheduler(engine, faults, jobs=4) is None
