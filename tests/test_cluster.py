"""Tests for the chunked cluster executor (``repro.cluster``).

The contract is the packed engine's: *bit-for-bit parity* with the
packed/naive reference — same detection maps, same first-detecting pattern
indices, same fault order — regardless of transport (``local`` / ``mp``),
worker count, task arrival order, duplicate deliveries or failed tasks.  On
top of parity, the suite checks the cluster machinery itself: the shared
protocol (chunk planning, adaptive sizing, idempotent min-merge), the
inline fallback, backend registration and the runner's ``--transport``
flag.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.cluster import (
    CHUNK_PLAN_ENV_VAR,
    TRANSPORT_ENV_VAR,
    AdaptiveChunker,
    ClusterBackend,
    ClusterFaultSimulator,
    LocalTransport,
    MpTransport,
    TransportError,
    TransportTaskError,
    default_transport_name,
    parse_transport,
    plan_chunks,
    resolve_chunk_plan,
    resolve_transport,
    set_default_transport,
)
from repro.cluster.protocol import worker_context
from repro.engine import NaiveFaultSimulator, PackedFaultSimulator, available_backends, get_backend


def _random_patterns(circuit, n_patterns: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


def _medium_circuit():
    return generate_circuit(CircuitSpec("cluster_med", 10, 12, 300, seed=4))


def _patterns(circuit, n=160, seed=1):
    from repro.cubes.cube import TestSet

    return TestSet.from_matrix(_random_patterns(circuit, n, seed=seed))


def _packed_reference(circuit, patterns, faults, drop=True):
    return PackedFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)


def _assert_same(reference, result, context=""):
    assert list(reference.detected.items()) == list(result.detected.items()), context
    assert reference.undetected == result.undetected, context
    assert reference.coverage == result.coverage, context


def _forced_simulator(circuit, **kwargs) -> ClusterFaultSimulator:
    """A cluster simulator with knobs forcing multi-chunk dispatch."""
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("min_chunk_faults", 2)
    kwargs.setdefault("chunks_per_worker", 2)
    return ClusterFaultSimulator(circuit, **kwargs)


# -- protocol ----------------------------------------------------------------
class TestProtocol:
    def test_plan_chunks_fault_axis(self):
        mode, chunks = plan_chunks(2, 100, 64, 128, chunks_per_worker=2, min_chunk_faults=8)
        assert mode == "fault-chunks"
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(100))

    def test_plan_chunks_pattern_axis(self):
        mode, shards = plan_chunks(2, 2, 1024, 128, min_chunk_faults=8)
        assert mode == "pattern-shards"
        assert shards[0][0] == 0 and shards[-1][1] == 1024
        assert all(start % 128 == 0 for start, _ in shards)

    def test_plan_chunks_inline_for_tiny_work(self):
        assert plan_chunks(4, 3, 16, 128) is None

    def test_resolve_chunk_plan(self, monkeypatch):
        assert resolve_chunk_plan() == "adaptive"
        assert resolve_chunk_plan("static") == "static"
        monkeypatch.setenv(CHUNK_PLAN_ENV_VAR, "static")
        assert resolve_chunk_plan() == "static"
        with pytest.raises(ValueError, match="chunk plan"):
            resolve_chunk_plan("bogus")


class TestAdaptiveChunker:
    def test_covers_all_faults_disjointly(self):
        chunker = AdaptiveChunker(97, initial_chunk=10, min_chunk=4)
        seen = []
        while True:
            bounds = chunker.next_bounds()
            if bounds is None:
                break
            lo, hi = bounds
            chunker.record(hi - lo, (hi - lo) * 50)
            seen.extend(range(lo, hi))
        assert seen == list(range(97))

    def test_cheap_feedback_grows_chunks(self):
        chunker = AdaptiveChunker(1000, initial_chunk=10, min_chunk=2)
        lo, hi = chunker.next_bounds()
        assert hi - lo == 10
        chunker.record(10, 1000)  # anchor: 100 evals/fault
        for _ in range(5):
            chunker.record(10, 100)  # cones turn out 10x cheaper
        lo, hi = chunker.next_bounds()
        assert hi - lo > 10  # cheaper faults -> bigger chunks

    def test_expensive_feedback_shrinks_chunks(self):
        chunker = AdaptiveChunker(1000, initial_chunk=20, min_chunk=2)
        chunker.next_bounds()
        chunker.record(20, 2000)  # anchor: 100 evals/fault
        for _ in range(5):
            chunker.record(20, 40000)  # cones turn out 20x heavier
        lo, hi = chunker.next_bounds()
        assert hi - lo < 20  # heavier faults -> finer chunks
        assert hi - lo >= 2

    def test_size_clamped_to_max(self):
        chunker = AdaptiveChunker(10_000, initial_chunk=10, min_chunk=2)
        chunker.next_bounds()
        chunker.record(10, 1000)
        for _ in range(20):
            chunker.record(10, 1)  # absurdly cheap
        lo, hi = chunker.next_bounds()
        assert hi - lo <= chunker.max_chunk == 40


# -- transport resolution ----------------------------------------------------
class TestTransportResolution:
    def test_parse_specs(self):
        assert parse_transport("local") == "local"
        assert parse_transport(" mp ") == "mp"
        with pytest.raises(ValueError, match="unknown transport 'queue'"):
            parse_transport("queue")

    def test_unknown_transport_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown transport"):
            parse_transport("bogus")
        with pytest.raises(ValueError, match="unknown transport"):
            set_default_transport("bogus")
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "queue")
        with pytest.raises(ValueError, match="REPRO_TRANSPORT: unknown transport"):
            default_transport_name()

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "local")
        assert default_transport_name() == "local"
        assert isinstance(resolve_transport(jobs=2), LocalTransport)

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV_VAR, "mp")
        previous = set_default_transport("local")
        try:
            assert default_transport_name() == "local"
        finally:
            set_default_transport(previous)
        assert default_transport_name() == "mp"


# -- parity ------------------------------------------------------------------
CIRCUITS = [
    pytest.param(lambda: c17(), id="c17"),
    pytest.param(lambda: b01_like_fsm(), id="b01_fsm"),
    pytest.param(lambda: _medium_circuit(), id="rand_medium"),
]


class TestLocalTransportParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("fault_mode", ["lanes", "words", "faults"])
    def test_detection_map_parity(self, make_circuit, drop, fault_mode):
        circuit = make_circuit()
        patterns = _patterns(circuit, 130, seed=9)
        faults = full_fault_list(circuit)
        naive = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        simulator = _forced_simulator(circuit, transport="local", mode=fault_mode)
        result = simulator.run(patterns, faults, drop_detected=drop)
        assert simulator.last_run_stats["transport"] == "local"
        _assert_same(naive, result)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parity_for_any_worker_count(self, jobs):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = ClusterFaultSimulator(
            circuit, transport="local", jobs=jobs, min_chunk_faults=2, chunks_per_worker=2
        )
        _assert_same(reference, simulator.run(patterns, faults), jobs)
        if jobs == 1:
            assert simulator.last_run_stats["mode"] == "inline"

    def test_out_of_order_results_merge_identically(self):
        """LIFO collection proves the merges are arrival-order independent."""
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport=LocalTransport(order="lifo"))
        _assert_same(reference, simulator.run(patterns, faults), "lifo")

    def test_pattern_shards_broadcast_over_transport(self):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit("and2")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("out", GateType.AND, ["a", "b"])
        circuit.add_output("out")
        circuit.validate()
        matrix = _random_patterns(circuit, 256, seed=3)
        matrix[0] = [1, 1]  # pattern 0 detects out/s-a-0
        from repro.cubes.cube import TestSet

        patterns = TestSet.from_matrix(matrix)
        faults = [StuckAtFault("out", 0)]
        simulator = ClusterFaultSimulator(
            circuit, transport="local", jobs=2, block_patterns=8, chunks_per_worker=8
        )
        result = simulator.run(patterns, faults)
        stats = simulator.last_run_stats
        assert stats["mode"] == "pattern-shards"
        assert stats["shard_dropped_evaluations"] > 0
        assert result.detected[faults[0]] == 0

    @pytest.mark.parametrize("chunk_plan", ["adaptive", "static"])
    def test_chunk_plan_parity(self, chunk_plan):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport="local", chunk_plan=chunk_plan)
        _assert_same(reference, simulator.run(patterns, faults), chunk_plan)
        assert simulator.last_run_stats["chunks"] > 1

    def test_duplicate_deliveries_are_idempotent(self):
        class DuplicatingTransport(LocalTransport):
            """Delivers every result twice (a duplicate delivery)."""

            def __init__(self):
                super().__init__()
                self._replay = None

            def next_result(self, timeout=30.0):
                if self._replay is not None:
                    out, self._replay = self._replay, None
                    return out
                out = super().next_result(timeout)
                self._replay = out
                return out

        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        reference = _packed_reference(circuit, patterns, faults)
        simulator = _forced_simulator(circuit, transport=DuplicatingTransport())
        _assert_same(reference, simulator.run(patterns, faults), "duplicates")

    def test_in_worker_context_forces_inline(self):
        circuit = c17()
        patterns = _patterns(circuit, 64)
        faults = full_fault_list(circuit)
        simulator = _forced_simulator(circuit, transport="local")
        with worker_context():
            result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        _assert_same(_packed_reference(circuit, patterns, faults), result)


class TestMpTransportParity:
    def test_parity_over_shared_pool(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        simulator = _forced_simulator(circuit, transport="mp")
        result = simulator.run(patterns, faults)
        if simulator.last_run_stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert simulator.last_run_stats["transport"] == "mp"
        _assert_same(_packed_reference(circuit, patterns, faults), result)

    def test_backend_facade_parity(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit, 70, seed=2)
        faults = collapse_faults(circuit)
        res_cluster = FaultSimulator(circuit, backend="cluster").run(patterns, faults)
        res_packed = FaultSimulator(circuit, backend="packed").run(patterns, faults)
        _assert_same(res_packed, res_cluster)


class TestSharedPool:
    def test_atpg_with_dropping_over_shared_pool_matches_serial(self):
        """Two consumers share one pool: cube generation under the cluster
        backend runs the PODEM scheduler and the dropping fault simulator
        on the ``mp`` pool at the same time, and must be byte-identical to
        the serial run."""
        from repro.atpg.tpg import generate_test_cubes

        circuit = generate_circuit(CircuitSpec("queue_atpg", 10, 14, 260, seed=3))
        kwargs = dict(max_faults=64, backtrack_limit=20, seed=2)
        baseline = generate_test_cubes(circuit, **kwargs)
        result = generate_test_cubes(
            circuit, backend=ClusterBackend(transport="mp"), jobs=2, **kwargs
        )
        assert np.array_equal(baseline.cubes.matrix, result.cubes.matrix)
        assert list(baseline.detected_faults.items()) == list(
            result.detected_faults.items()
        )
        assert baseline.untestable_faults == result.untestable_faults
        assert baseline.aborted_faults == result.aborted_faults


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

    def test_failed_transport_falls_back_inline(self):
        class ExplodingTransport(LocalTransport):
            def next_result(self, timeout=30.0):
                raise RuntimeError("transport lost")

        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        simulator = _forced_simulator(circuit, transport=ExplodingTransport())
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        _assert_same(_packed_reference(circuit, patterns, faults), result)


class TestBackendRegistration:
    def test_cluster_backend_registered(self):
        assert "cluster" in available_backends()
        assert isinstance(get_backend("cluster"), ClusterBackend)

    def test_fault_simulator_shares_compiled_program(self):
        circuit = c17()
        backend = get_backend("cluster")
        first = backend.fault_simulator(circuit)
        second = backend.logic_simulator(circuit)
        assert isinstance(first, ClusterFaultSimulator)
        assert first.program is second.program

    def test_engine_import_registers_cluster(self):
        # repro.engine imports repro.cluster for its registration side
        # effect; a fresh interpreter proves nothing else has to.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, repro.engine\n"
            "from repro.engine.backend import available_backends, get_backend\n"
            "assert type(get_backend('cluster')).__name__ == 'ClusterBackend'\n"
            "print(available_backends(), 'repro.cluster' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src_dir)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "['cluster', 'naive', 'packed'] True"

    def test_env_var_resolves_cluster(self, monkeypatch):
        from repro.engine.backend import BACKEND_ENV_VAR, default_backend_name

        monkeypatch.setenv(BACKEND_ENV_VAR, "cluster")
        assert default_backend_name() == "cluster"
        assert get_backend() is get_backend("cluster")

    def test_empty_pattern_set(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        from repro.cubes.cube import TestSet

        result = _forced_simulator(circuit, transport="local").run(TestSet([]), faults)
        assert result.detected_count == 0
        assert result.undetected == list(faults)


class TestRunnerTransport:
    def test_transport_flag_parsed(self):
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(["--transport", "local"])
        assert args.transport == "local"
        assert build_parser().parse_args([]).transport is None

    def test_bad_transport_flag_rejected_at_cli(self, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--transport", "bogus"])
        assert "unknown transport" in capsys.readouterr().err

    def test_bad_transport_env_rejected_before_running(self, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv(TRANSPORT_ENV_VAR, "queue")
        assert main(["--artifacts", "1", "--benchmarks", "b01"]) == 2
        captured = capsys.readouterr()
        assert "REPRO_TRANSPORT: unknown transport 'queue'" in captured.err
        assert captured.out == ""

    def test_cluster_report_matches_serial(self, tmp_path):
        from repro.experiments.runner import main

        serial_out = tmp_path / "serial.txt"
        cluster_out = tmp_path / "cluster.txt"
        base = ["--artifacts", "1", "--benchmarks", "b01,b03", "--backend", "cluster"]
        assert main(base + ["--out", str(serial_out)]) == 0
        assert (
            main(base + ["--jobs", "2", "--transport", "local", "--out", str(cluster_out)])
            == 0
        )
        assert serial_out.read_bytes() == cluster_out.read_bytes()
