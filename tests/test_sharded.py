"""Tests for in-process fault grading, worker counts and ``--jobs`` cells.

Every ``jobs > 1`` run in the package is the experiment runner's cells over
the shared spawn pool of :mod:`repro.engine.pool`; fault grading and PODEM
always run in process.  The detection-map contract the multi-process
grading path used to carry is now the in-process facade's alone:
*bit-for-bit parity* with the naive reference — same detection maps, same
first-detecting pattern indices, same fault order — for every grading
kernel, 64-pattern boundary and dropping setting.  On top of
parity, the suite checks worker-count resolution, that the pool refuses a
single worker, that ``jobs=1`` never builds a transport, the runner's
deterministic ``--jobs`` merge, and that the retired ``sharded`` and
``cluster`` backend names are rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.cubes.cube import TestSet
from repro.engine import (
    NaiveFaultSimulator,
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
    @pytest.mark.parametrize("fault_mode", ["lanes", "faults"])
    def test_detection_map_parity(self, make_circuit, n_patterns, drop, fault_mode):
        circuit = make_circuit()
        patterns = TestSet.from_matrix(_random_patterns(circuit, n_patterns, seed=9))
        faults = full_fault_list(circuit)
        naive = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        simulator = FaultSimulator(circuit, backend="packed", fault_mode=fault_mode)
        result = simulator.run(patterns, faults, drop_detected=drop)
        assert simulator.last_run_stats["fault_mode"] == fault_mode
        # Bit-for-bit: same faults, same first-detecting indices, same order.
        assert list(naive.detected.items()) == list(result.detected.items())
        assert naive.undetected == result.undetected
        assert naive.coverage == result.coverage

    def test_wide_pattern_set_grades_on_lanes_in_auto_mode(self):
        # Wider than any workload's pattern set; auto still grades on lanes.
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 4160, seed=3))
        faults = full_fault_list(circuit)
        simulator = FaultSimulator(circuit, backend="packed", fault_mode="auto")
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["fault_mode"] == "lanes"
        reference = NaiveFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())
        assert result.undetected == reference.undetected

    def test_empty_pattern_set(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        result = FaultSimulator(circuit, backend="packed").run(TestSet([]), faults)
        assert result.detected_count == 0
        assert result.undetected == list(faults)

    def test_unknown_fault_net_is_undetected(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 8, seed=0))
        ghost = StuckAtFault("no_such_net", 0)
        result = FaultSimulator(circuit, backend="packed").run(patterns, [ghost])
        assert result.undetected == [ghost]


class TestFallbacks:
    def test_jobs_1_runs_inline(self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.report import render_table

        def no_transport(jobs=None):
            raise AssertionError("jobs=1 must not build a transport")

        monkeypatch.setattr(runner, "MpTransport", no_transport)
        result = runner.run_all(["1"], ["b01"], seed=0, jobs=1)
        assert [render_table(table) for table in result["1"]]

    def test_worker_pool_refuses_single_job(self):
        assert worker_pool(1) is None

    def test_drop_flag_does_not_change_results(self):
        circuit = generate_circuit(CircuitSpec("dropflag", 8, 6, 150, seed=7))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 200, seed=7))
        faults = collapse_faults(circuit)
        simulator = FaultSimulator(circuit, backend="packed")
        with_drop = simulator.run(patterns, faults, drop_detected=True)
        without_drop = simulator.run(patterns, faults, drop_detected=False)
        assert list(with_drop.detected.items()) == list(without_drop.detected.items())
        assert with_drop.undetected == without_drop.undetected


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
    @pytest.mark.parametrize("name", ["sharded", "cluster"])
    def test_sharded_backend_name_rejected(self, name, monkeypatch, capsys):
        # Fault grading runs in process on naive/packed; the retired
        # multi-process backend names fail with the registry's ordinary
        # unknown-backend error, at the CLI before any output.
        from repro.engine.backend import BACKEND_ENV_VAR
        from repro.experiments.runner import main

        assert name not in available_backends()
        with pytest.raises(KeyError, match=f"unknown backend '{name}'"):
            get_backend(name)
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        assert main(["--artifacts", "1", "--benchmarks", "b01"]) == 2
        captured = capsys.readouterr()
        assert f"unknown backend '{name}'" in captured.err
        assert captured.out == ""
        monkeypatch.delenv(BACKEND_ENV_VAR)
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", name, "--artifacts", "1", "--benchmarks", "b01"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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
