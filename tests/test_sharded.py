"""Tests for sharded fault simulation over the shared process pool.

Every multi-process run in the package is the cluster backend's plan —
fault-list chunks or pattern-block shards — executed over a transport; this
suite pins the ``mp`` transport (the shared spawn pool of
:mod:`repro.engine.pool`) that every ``jobs > 1`` run uses by default.  The
contract is the same as the packed engine's: *bit-for-bit parity* with the
naive reference — same detection maps, same first-detecting pattern
indices, same fault order — regardless of how the work is partitioned
across worker processes, which sharding strategy is picked, or whether the
pool exists at all.  On top of parity, the suite checks the scale-out
machinery itself: shard-boundary fault dropping (the detected-fault
broadcast), the jobs=1 inline fallback, worker-count resolution, the
experiment runner's deterministic ``--jobs`` merge, and that the retired
``sharded`` backend name is rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.gates import GateType
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.circuit.netlist import Circuit
from repro.cluster import ClusterBackend, ClusterFaultSimulator
from repro.cubes.cube import TestSet
from repro.engine import (
    NaiveFaultSimulator,
    PackedFaultSimulator,
    available_backends,
    get_backend,
)
from repro.engine.pool import (
    JOBS_ENV_VAR,
    default_jobs,
    parse_jobs,
    resolve_jobs,
    set_default_jobs,
    worker_pool,
)


def _random_patterns(circuit, n_patterns: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


def _mp_simulator(circuit, **kwargs) -> ClusterFaultSimulator:
    """A fault simulator sharding over the shared pool (``mp`` transport)."""
    return ClusterFaultSimulator(circuit, transport="mp", **kwargs)


def _pooled_simulator(circuit, **kwargs) -> ClusterFaultSimulator:
    """An ``mp`` simulator with knobs forcing real pool dispatch."""
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("min_chunk_faults", 2)
    kwargs.setdefault("chunks_per_worker", 2)
    return _mp_simulator(circuit, **kwargs)


def _and_circuit() -> Circuit:
    """Two-input AND with one output: a fault with a huge pattern set."""
    circuit = Circuit("and2")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("out", GateType.AND, ["a", "b"])
    circuit.add_output("out")
    circuit.validate()
    return circuit


CIRCUITS = [
    pytest.param(lambda: c17(), id="c17"),
    pytest.param(lambda: b01_like_fsm(), id="b01_fsm"),
    pytest.param(
        lambda: generate_circuit(CircuitSpec("rand_medium", 12, 20, 400, seed=5)),
        id="rand_medium",
    ),
]


class TestShardedParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("fault_mode", ["lanes", "words", "faults"])
    def test_detection_map_parity(self, make_circuit, n_patterns, drop, fault_mode):
        circuit = make_circuit()
        patterns = TestSet.from_matrix(_random_patterns(circuit, n_patterns, seed=9))
        faults = full_fault_list(circuit)
        naive = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        sharded = _pooled_simulator(circuit, mode=fault_mode).run(
            patterns, faults, drop_detected=drop
        )
        # Bit-for-bit: same faults, same first-detecting indices, same order.
        assert list(naive.detected.items()) == list(sharded.detected.items())
        assert naive.undetected == sharded.undetected
        assert naive.coverage == sharded.coverage

    def test_wide_pattern_set_grades_on_words_in_auto_mode(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 4160, seed=3))
        faults = full_fault_list(circuit)
        simulator = _pooled_simulator(circuit, mode="auto")
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["fault_mode"] == "words"
        reference = PackedFaultSimulator(circuit, mode="lanes").run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())
        assert result.undetected == reference.undetected

    def test_fault_chunk_mode_actually_shards(self):
        circuit = generate_circuit(CircuitSpec("chunky", 8, 6, 200, seed=21))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 130, seed=2))
        faults = collapse_faults(circuit)
        simulator = _pooled_simulator(circuit)
        result = simulator.run(patterns, faults)
        stats = simulator.last_run_stats
        if stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert stats["mode"] == "fault-chunks"
        assert stats["chunks"] > 1
        packed = PackedFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(packed.detected.items())
        assert result.undetected == packed.undetected

    def test_facade_resolves_sharded_backend(self):
        circuit = generate_circuit(CircuitSpec("facade", 8, 6, 200, seed=21))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 70, seed=2))
        faults = collapse_faults(circuit)
        backend = ClusterBackend(transport="mp", jobs=2)
        res_sharded = FaultSimulator(circuit, backend=backend).run(patterns, faults)
        res_packed = FaultSimulator(circuit, backend="packed").run(patterns, faults)
        assert list(res_sharded.detected.items()) == list(res_packed.detected.items())
        assert res_sharded.undetected == res_packed.undetected

    def test_empty_pattern_set(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        result = _pooled_simulator(circuit).run(TestSet([]), faults)
        assert result.detected_count == 0
        assert result.undetected == list(faults)

    def test_unknown_fault_net_is_undetected(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 8, seed=0))
        ghost = StuckAtFault("no_such_net", 0)
        result = _pooled_simulator(circuit).run(patterns, [ghost])
        assert result.undetected == [ghost]


class TestShardBoundaryDropping:
    """Block-wise fault dropping must survive shard boundaries."""

    def test_pattern_shards_broadcast_detected_faults(self):
        circuit = _and_circuit()
        matrix = _random_patterns(circuit, 256, seed=3)
        matrix[0] = [1, 1]  # pattern 0 detects out/s-a-0
        patterns = TestSet.from_matrix(matrix)
        faults = [StuckAtFault("out", 0)]
        simulator = _mp_simulator(circuit, jobs=2, block_patterns=8, chunks_per_worker=8)
        result = simulator.run(patterns, faults)
        stats = simulator.last_run_stats
        if stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert stats["mode"] == "pattern-shards"
        assert stats["chunks"] > 2
        # The fault is detected at pattern 0; every shard submitted after
        # that result returned must have been told to skip it entirely.
        assert stats["shard_dropped_evaluations"] > 0
        # ...and the deterministic min-merge still reports the true first
        # detection, identical to the serial backends.
        packed = PackedFaultSimulator(circuit, block_patterns=8).run(patterns, faults)
        assert list(result.detected.items()) == list(packed.detected.items())
        assert result.detected[faults[0]] == 0

    def test_pattern_shards_broadcast_in_words_mode(self):
        circuit = _and_circuit()
        matrix = _random_patterns(circuit, 1024, seed=3)
        matrix[0] = [1, 1]  # pattern 0 detects out/s-a-0
        patterns = TestSet.from_matrix(matrix)
        faults = [StuckAtFault("out", 0)]
        simulator = _mp_simulator(
            circuit, jobs=2, block_patterns=64, chunks_per_worker=8, mode="words"
        )
        result = simulator.run(patterns, faults)
        stats = simulator.last_run_stats
        if stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert stats["mode"] == "pattern-shards"
        assert stats["fault_mode"] == "words"
        assert stats["shard_dropped_evaluations"] > 0
        packed = PackedFaultSimulator(circuit, mode="lanes").run(patterns, faults)
        assert list(result.detected.items()) == list(packed.detected.items())
        assert result.detected[faults[0]] == 0

    def test_pattern_shards_without_dropping_keep_parity(self):
        circuit = _and_circuit()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 256, seed=4))
        faults = [StuckAtFault("out", 0), StuckAtFault("out", 1)]
        simulator = _mp_simulator(circuit, jobs=2, block_patterns=8, chunks_per_worker=8)
        result = simulator.run(patterns, faults, drop_detected=False)
        stats = simulator.last_run_stats
        if stats["mode"] == "inline":
            pytest.skip("worker pool unavailable in this environment")
        assert stats["shard_dropped_evaluations"] == 0
        packed = PackedFaultSimulator(circuit, block_patterns=8).run(
            patterns, faults, drop_detected=False
        )
        assert list(result.detected.items()) == list(packed.detected.items())


class TestFallbacks:
    def test_jobs_1_runs_inline(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 65, seed=1))
        faults = full_fault_list(circuit)
        simulator = _mp_simulator(circuit, jobs=1)
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        packed = PackedFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(packed.detected.items())

    def test_inline_fallback_respects_words_mode(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 65, seed=1))
        faults = full_fault_list(circuit)
        simulator = _mp_simulator(circuit, jobs=1, mode="words")
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["mode"] == "inline"
        assert simulator.last_run_stats["fault_mode"] == "words"
        packed = PackedFaultSimulator(circuit, mode="lanes").run(patterns, faults)
        assert list(result.detected.items()) == list(packed.detected.items())

    def test_small_workloads_stay_inline_despite_jobs(self):
        # Default knobs: a handful of faults over a handful of patterns is
        # not worth a single pickle round trip.
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 16, seed=1))
        simulator = _mp_simulator(circuit, jobs=4)
        simulator.run(patterns, full_fault_list(circuit)[:4])
        assert simulator.last_run_stats["mode"] == "inline"

    def test_worker_pool_refuses_single_job(self):
        assert worker_pool(1) is None

    def test_drop_flag_does_not_change_results(self):
        circuit = generate_circuit(CircuitSpec("dropflag", 8, 6, 150, seed=7))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 200, seed=7))
        faults = collapse_faults(circuit)
        simulator = _pooled_simulator(circuit)
        with_drop = simulator.run(patterns, faults, drop_detected=True)
        without_drop = simulator.run(patterns, faults, drop_detected=False)
        assert list(with_drop.detected.items()) == list(without_drop.detected.items())
        assert with_drop.undetected == without_drop.undetected


class TestPoolSharing:
    def test_explicit_jobs_podem_then_pooled_fault_sim_stay_pooled(self, monkeypatch):
        """An explicit ``jobs`` that differs from ``REPRO_JOBS`` must not
        resize the shared pool under another consumer's in-flight tasks:
        PODEM over 3 workers interleaves with the dropping fault simulator
        over the environment's 2, and a later fault simulation still pools."""
        from repro.atpg.tpg import generate_test_cubes
        from repro.obs import recorder as obs

        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        circuit = generate_circuit(CircuitSpec("pool_share", 10, 14, 260, seed=3))
        kwargs = dict(max_faults=90, backtrack_limit=20, seed=2)
        serial = generate_test_cubes(circuit, jobs=1, backend="packed", **kwargs)
        faults = collapse_faults(circuit)
        patterns = TestSet.from_matrix(_random_patterns(circuit, 64, seed=1))
        obs.enable()
        try:
            pooled = generate_test_cubes(
                circuit, backend=ClusterBackend(transport="mp"), jobs=3, **kwargs
            )
            simulator = _pooled_simulator(circuit, jobs=None)
            result = simulator.run(patterns, faults)
            kinds = [event["kind"] for event in obs.snapshot()["events"]]
        finally:
            obs.disable()
        assert "pool_unavailable" not in kinds
        assert "transport_failed" not in kinds
        assert simulator.last_run_stats["mode"] == "fault-chunks"
        assert np.array_equal(serial.cubes.matrix, pooled.cubes.matrix)
        assert list(serial.detected_faults.items()) == list(
            pooled.detected_faults.items()
        )
        reference = PackedFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())


class TestJobsResolution:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert default_jobs() == 3
        assert resolve_jobs() == 3

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(5) == 5

    def test_set_default_jobs_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        previous = set_default_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            set_default_jobs(previous)
        assert resolve_jobs() == 3

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    def test_non_positive_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS must be a positive integer"):
            default_jobs()

    def test_non_positive_jobs_rejected(self):
        # A zero/negative worker count is a typo, not a request for serial
        # mode; it must fail loudly at the parsing surface.
        for bad in (0, -3, "nope", 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                resolve_jobs(bad)
        with pytest.raises(ValueError, match="positive integer"):
            set_default_jobs(-1)

    def test_parse_jobs_accepts_integral_strings(self):
        assert parse_jobs("4") == 4
        assert parse_jobs(" 2 ") == 2
        assert parse_jobs(3) == 3


class TestBackendRegistration:
    def test_sharded_backend_name_rejected(self, monkeypatch, capsys):
        # Sharding is the cluster backend's job; the old name is gone and
        # fails with the registry's ordinary unknown-backend error.
        from repro.engine.backend import BACKEND_ENV_VAR
        from repro.experiments.runner import main

        assert "sharded" not in available_backends()
        with pytest.raises(KeyError, match="unknown backend 'sharded'"):
            get_backend("sharded")
        monkeypatch.setenv(BACKEND_ENV_VAR, "sharded")
        assert main(["--artifacts", "1", "--benchmarks", "b01"]) == 2
        assert "unknown backend 'sharded'" in capsys.readouterr().err

    def test_fault_simulator_shares_compiled_program(self):
        circuit = c17()
        backend = ClusterBackend(transport="mp")
        first = backend.fault_simulator(circuit)
        second = backend.logic_simulator(circuit)
        assert isinstance(first, ClusterFaultSimulator)
        assert first.transport == "mp"
        assert first.program is second.program

    def test_sharded_and_packed_share_program_shape(self):
        circuit = c17()
        sharded = ClusterBackend(transport="mp").fault_simulator(circuit)
        packed = get_backend("packed").fault_simulator(circuit)
        assert sharded.program.net_names == packed.program.net_names


class TestRunnerJobs:
    """--jobs N must be a pure scheduling knob: byte-identical reports."""

    def test_parallel_report_matches_serial(self, tmp_path):
        from repro.experiments.runner import main

        serial_out = tmp_path / "serial.txt"
        parallel_out = tmp_path / "parallel.txt"
        base = ["--artifacts", "1,fig1", "--benchmarks", "b01,b03"]
        assert main(base + ["--out", str(serial_out)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel_out)]) == 0
        assert serial_out.read_bytes() == parallel_out.read_bytes()

    def test_jobs_flag_parsed(self):
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(["--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args([]).jobs is None

    @pytest.mark.parametrize("bad", ["many", "-2", "0", "2.5"])
    def test_bad_jobs_flag_rejected_at_cli(self, bad, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--jobs", bad])
        assert "--jobs must be a positive integer" in capsys.readouterr().err

    def test_bad_jobs_env_rejected_before_running(self, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv(JOBS_ENV_VAR, "-3")
        assert main(["--artifacts", "1", "--benchmarks", "b01"]) == 2
        assert "REPRO_JOBS must be a positive integer" in capsys.readouterr().err
