"""Sharded ATPG determinism: cube generation must be jobs-invariant.

``generate_test_cubes`` may fan the per-fault PODEM runs out across the
shared worker pool (the cluster scheduler over the ``mp`` transport); the
contract is that the full :class:`ATPGResult` — cube matrix, cube
names/order, fault->cube-index map, untestable/aborted classification — is
*byte-identical* for every ``jobs`` value, under the cluster backend pinned
to ``mp``, and on the inline-fallback path when no pool can be used.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.podem import PodemEngine
from repro.atpg.tpg import _podem_scheduler, generate_test_cubes
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.cluster import ClusterBackend, ClusterPodemScheduler
from repro.engine.backend import get_backend
import repro.cluster.transport as transport_module


#: The medium circuit's ATPG knobs, shared by baseline and sharded runs (the
#: fault cap keeps the many full-driver runs of this module fast while still
#: spanning several scheduler chunks).
MEDIUM_KWARGS = dict(max_faults=90, backtrack_limit=20, seed=2)


def _medium_circuit():
    return generate_circuit(CircuitSpec("atpg_med", 10, 14, 260, seed=3))


@pytest.fixture(scope="module")
def medium_circuit():
    return _medium_circuit()


@pytest.fixture(scope="module")
def medium_baseline(medium_circuit):
    """One serial reference run every jobs variant is compared against."""
    return generate_test_cubes(medium_circuit, **MEDIUM_KWARGS)


def _assert_same_atpg(a, b, context=""):
    assert np.array_equal(a.cubes.matrix, b.cubes.matrix), context
    assert a.cubes.names == b.cubes.names, context
    assert list(a.detected_faults.items()) == list(b.detected_faults.items()), context
    assert a.untestable_faults == b.untestable_faults, context
    assert a.aborted_faults == b.aborted_faults, context
    assert a.total_faults == b.total_faults, context


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_same_result_for_any_job_count(self, jobs, medium_circuit, medium_baseline):
        result = generate_test_cubes(medium_circuit, jobs=jobs, **MEDIUM_KWARGS)
        _assert_same_atpg(medium_baseline, result, jobs)

    def test_sharded_backend_matches_packed(self, medium_circuit, medium_baseline):
        result = generate_test_cubes(
            medium_circuit,
            backend=ClusterBackend(transport="mp"),
            jobs=2,
            **MEDIUM_KWARGS,
        )
        _assert_same_atpg(medium_baseline, result, "cluster backend over mp")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_max_patterns_cap_is_jobs_invariant(self, jobs, medium_circuit):
        baseline = generate_test_cubes(
            medium_circuit, seed=5, max_faults=90, max_patterns=6
        )
        result = generate_test_cubes(
            medium_circuit, seed=5, max_faults=90, max_patterns=6, jobs=jobs
        )
        _assert_same_atpg(baseline, result, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_dropping_is_jobs_invariant(self, jobs, medium_circuit):
        baseline = generate_test_cubes(
            medium_circuit, seed=1, max_faults=90, drop_with_fault_sim=False
        )
        result = generate_test_cubes(
            medium_circuit, seed=1, max_faults=90, drop_with_fault_sim=False, jobs=jobs
        )
        _assert_same_atpg(baseline, result, jobs)

    def test_dict_mode_ignores_jobs(self):
        """The dict reference has no pooled path; jobs must not change it."""
        circuit = b01_like_fsm()
        baseline = generate_test_cubes(circuit, seed=2, atpg_mode="dict")
        result = generate_test_cubes(circuit, seed=2, atpg_mode="dict", jobs=4)
        _assert_same_atpg(baseline, result, "dict mode")


class TestInlineFallback:
    def test_pool_unavailable_falls_back_inline(
        self, monkeypatch, medium_circuit, medium_baseline
    ):
        """With no pool the scheduler runs the same engine in process."""
        monkeypatch.setattr(transport_module, "worker_pool", lambda jobs: None)
        result = generate_test_cubes(medium_circuit, jobs=4, **MEDIUM_KWARGS)
        _assert_same_atpg(medium_baseline, result, "inline fallback")

    def test_scheduler_inline_fetch_matches_engine(self, monkeypatch):
        monkeypatch.setattr(transport_module, "worker_pool", lambda jobs: None)
        circuit = b01_like_fsm()
        program = get_backend("packed").compiled_program(circuit)
        faults = collapse_faults(circuit)
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=100,
            transport="mp",
            jobs=4,
        )
        assert not scheduler.pooled
        assert scheduler.stats["mode"] == "inline"
        engine = PodemEngine(circuit, mode="compiled")
        for index, fault in enumerate(faults):
            expected = engine.generate(fault)
            status, bits, backtracks, decisions = scheduler.fetch(index)
            assert status == expected.status, fault
            assert backtracks == expected.backtracks, fault
            if expected.detected:
                assert list(bits) == list(expected.cube.bits), fault


class TestSchedulerMachinery:
    def test_scheduler_not_built_for_serial_cases(self):
        circuit = c17()
        engine = PodemEngine(circuit, mode="compiled")
        faults = collapse_faults(circuit)
        assert _podem_scheduler(engine, faults, jobs=1) is None
        # Tiny fault lists (c17's 16 faults are below the minimum-work
        # threshold) always generate inline: pooling could not amortise.
        assert _podem_scheduler(engine, faults, jobs=4) is None
        dict_engine = PodemEngine(circuit, mode="dict")
        assert _podem_scheduler(dict_engine, faults, jobs=4) is None

    def test_scheduler_rejects_bad_jobs(self):
        circuit = c17()
        engine = PodemEngine(circuit, mode="compiled")
        faults = collapse_faults(circuit)
        with pytest.raises(ValueError):
            _podem_scheduler(engine, faults, jobs=0)
        with pytest.raises(ValueError):
            _podem_scheduler(engine, faults, jobs="three")

    def test_drop_broadcast_skips_submissions(self, monkeypatch):
        """Dropped faults submitted later are omitted from their chunks."""
        monkeypatch.setattr(transport_module, "worker_pool", lambda jobs: None)
        circuit = b01_like_fsm()
        program = get_backend("packed").compiled_program(circuit)
        faults = collapse_faults(circuit)
        scheduler = ClusterPodemScheduler(
            program,
            sites=[program.net_index[f.net] for f in faults],
            stuck_values=[f.stuck_value for f in faults],
            backtrack_limit=100,
            transport="mp",
            jobs=2,
        )
        # Inline mode: drops simply mean the index is never fetched.
        scheduler.drop(1)
        status, _, _, _ = scheduler.fetch(0)
        assert status in ("detected", "untestable", "aborted")
        assert 1 in scheduler._dropped
