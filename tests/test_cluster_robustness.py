"""Tests for the cluster runtime's one fallback step.

A multi-process run has exactly one way down: an ``mp`` run whose transport
fails mid-run continues in process.  The acceptance bar: the run completes
**bit-identically** to the single-process reference, and the cause is
recorded rather than swallowed.
"""

from __future__ import annotations

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.circuit.library import b01_like_fsm
from repro.cluster import (
    ClusterFaultSimulator,
    LocalTransport,
    MpTransport,
    TransportError,
)
from repro.cubes.cube import TestSet
from repro.engine import PackedFaultSimulator


def _patterns(circuit, n=120, seed=1):
    rng = np.random.default_rng(seed)
    return TestSet.from_matrix(
        rng.integers(0, 2, size=(n, circuit.n_test_pins)).astype(np.int8)
    )


def _assert_same(reference, result, context=""):
    assert list(reference.detected.items()) == list(result.detected.items()), context
    assert reference.undetected == result.undetected, context
    assert reference.coverage == result.coverage, context


class TestDegradationLadder:
    def test_fault_sim_steps_down_one_rung(self, monkeypatch):
        """A resolved ``mp`` transport that dies mid-run retires the pool and
        the run continues in process — no other transport is tried."""

        class DyingMp(MpTransport):
            """An mp transport whose pool is lost after one result."""

            def __init__(self):
                self._local = LocalTransport()
                self.workers = 2
                self.collected = 0

            def submit(self, task):
                return self._local.submit(task)

            def next_result(self, timeout=30.0):
                if self.collected == 1:
                    raise TransportError("transport lost")
                self.collected += 1
                return self._local.next_result(timeout)

        import repro.cluster.fault_sim as fault_sim_mod
        import repro.cluster.transport as transport_mod

        resolved, discarded = [], []

        def fake_resolve(name, jobs=None):
            resolved.append(name)
            return DyingMp()

        monkeypatch.setattr(fault_sim_mod, "resolve_transport", fake_resolve)
        monkeypatch.setattr(
            transport_mod, "discard_broken_pool", lambda: discarded.append(True)
        )
        circuit = b01_like_fsm()
        patterns = _patterns(circuit, 120, seed=5)
        faults = collapse_faults(circuit)
        reference = PackedFaultSimulator(circuit).run(patterns, faults)
        simulator = ClusterFaultSimulator(
            circuit, transport="mp", jobs=2, min_chunk_faults=2, chunks_per_worker=2
        )
        result = simulator.run(patterns, faults)
        _assert_same(reference, result, "degraded run")
        assert simulator.last_run_stats["mode"] == "inline"
        assert resolved == ["mp"]
        assert discarded == [True]
