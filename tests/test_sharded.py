"""Tests for in-process fault grading and the runner's retired options.

Fault grading and PODEM run in process, and so does the experiment runner.
The fault simulator's contract is *bit-for-bit parity* with the naive
reference — same detection maps, same first-detecting pattern indices, same
fault order — for every grading kernel, 64-pattern boundary and dropping
setting.  On top of parity, the suite checks that the retired ``--backend``,
``--transport`` and ``--jobs`` flags are usage errors, that ``run_all``
accepts ``jobs=1`` alone, and that the retired engine and worker-count
variables are inert.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro import envvars
from repro.cubes.cube import TestSet
from repro.experiments.report import render_table
from tests.helpers import grading_kernel
from tests.reference_engines import NaiveFaultSimulator

BENCHMARKS = ["b01", "b03"]


def _rendered(results):
    return {
        artifact: [render_table(table) for table in tables]
        for artifact, tables in results.items()
    }


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
        simulator = FaultSimulator(circuit)
        with grading_kernel(fault_mode):
            result = simulator.run(patterns, faults, drop_detected=drop)
        assert simulator.last_run_stats["fault_mode"] == fault_mode
        # Bit-for-bit: same faults, same first-detecting indices, same order.
        assert list(naive.detected.items()) == list(result.detected.items())
        assert naive.undetected == result.undetected
        assert naive.coverage == result.coverage

    def test_wide_pattern_set_grades_on_lanes_in_auto_mode(self):
        # Wider than any workload's pattern set; the run grades on lanes.
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 4160, seed=3))
        faults = full_fault_list(circuit)
        simulator = FaultSimulator(circuit)
        result = simulator.run(patterns, faults)
        assert simulator.last_run_stats["fault_mode"] == "lanes"
        reference = NaiveFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())
        assert result.undetected == reference.undetected

    def test_empty_pattern_set(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        result = FaultSimulator(circuit).run(TestSet([]), faults)
        assert result.detected_count == 0
        assert result.undetected == list(faults)

    def test_unknown_fault_net_is_undetected(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 8, seed=0))
        ghost = StuckAtFault("no_such_net", 0)
        result = FaultSimulator(circuit).run(patterns, [ghost])
        assert result.undetected == [ghost]


class TestFallbacks:
    def test_drop_flag_does_not_change_results(self):
        circuit = generate_circuit(CircuitSpec("dropflag", 8, 6, 150, seed=7))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 200, seed=7))
        faults = collapse_faults(circuit)
        simulator = FaultSimulator(circuit)
        with_drop = simulator.run(patterns, faults, drop_detected=True)
        without_drop = simulator.run(patterns, faults, drop_detected=False)
        assert list(with_drop.detected.items()) == list(without_drop.detected.items())
        assert with_drop.undetected == without_drop.undetected


#: The engine knobs that were retired with the simulation-backend registry,
#: and the worker count that was retired with the runner's process pool.
RETIRED_ENGINE_VARS = {
    "REPRO_BACKEND": "naive",
    "REPRO_FAULT_MODE": "faults",
    "REPRO_ATPG_MODE": "dict",
    "REPRO_JOBS": "4",
}


class TestBackendRegistration:
    """One simulation engine: no flag or variable selects another."""

    @pytest.mark.parametrize("name", ["sharded", "cluster", "naive"])
    def test_sharded_backend_name_rejected(self, name, capsys):
        # The --backend flag is gone: any value is argparse's usage error,
        # before any output.
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", name, "--artifacts", "1", "--benchmarks", "b01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --backend" in captured.err
        assert captured.out == ""

    def test_retired_engine_variables_change_nothing(self, monkeypatch):
        """The retired variables are read by nothing: the tables of a run
        with them set (``REPRO_JOBS`` to a count or to garbage) equal a
        clean run's, and a metrics snapshot leaves them out."""
        from repro.experiments import memo
        from repro.experiments.runner import run_all
        from repro.experiments.workloads import build_workload

        artifacts = ["1", "6"]
        for name in RETIRED_ENGINE_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        build_workload.cache_clear()
        try:
            clean = _rendered(run_all(artifacts, BENCHMARKS, seed=0))
            for name, value in RETIRED_ENGINE_VARS.items():
                monkeypatch.setenv(name, value)
            build_workload.cache_clear()
            memo.clear()
            stale = _rendered(run_all(artifacts, BENCHMARKS, seed=0))
            assert not set(RETIRED_ENGINE_VARS) & set(envvars.env_snapshot())
            monkeypatch.setenv("REPRO_JOBS", "garbage")
            build_workload.cache_clear()
            memo.clear()
            garbage = _rendered(run_all(artifacts, BENCHMARKS, seed=0))
            assert "REPRO_JOBS" not in envvars.env_snapshot()
        finally:
            build_workload.cache_clear()
        assert stale == clean
        assert garbage == clean
        assert not set(RETIRED_ENGINE_VARS) & set(envvars.REGISTRY)


class TestRunnerJobs:
    """The runner is serial: its retired scheduling surface is rejected."""

    def test_bad_transport_flag_rejected_at_cli(self, capsys):
        # The old transport selector is gone and fails as an unknown
        # argument.
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--transport", "local", "--artifacts", "1", "--benchmarks", "b01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --transport" in captured.err
        assert captured.out == ""

    def test_jobs_flag_rejected_at_cli(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "2", "--artifacts", "1", "--benchmarks", "b01"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --jobs" in captured.err
        assert captured.out == ""

    def test_run_all_accepts_only_one_job(self):
        from repro.experiments.runner import run_all

        tables = run_all(["1"], ["b01"], jobs=1)["1"]
        assert [render_table(table) for table in tables]
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_all(["1"], ["b01"], jobs=2)

    def test_stray_jobs_variable_ignored_at_cli(self, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert main(["--artifacts", "1", "--benchmarks", "b01"]) == 0
        assert "Table I" in capsys.readouterr().out
