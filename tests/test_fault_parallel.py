"""Tests for the fault-parallel grading kernel (``mode="faults"``).

The kernel packs 64 faults per big-int word, one bit-lane each, and
replays each pattern once over the union of the packed faults' cones, so
the contract is the same bit-for-bit parity bar the lanes kernel already
clears: identical detection maps, identical first-detecting pattern
indices, identical fault order — against the naive reference, across
every benchmark profile, and through PODEM's fault-dropping sweep where the kernel collapses the
historical one-fault-at-a-time tail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import full_fault_list
from repro.atpg.tpg import generate_test_cubes
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.cubes.cube import TestSet
from repro.engine import (
    FAULT_MODE_ENV_VAR,
    FAULT_WORD_LANES,
    FAULTS_MODE_MAX_PATTERNS,
    FAULTS_MODE_FAULTS_PER_PATTERN,
    NaiveFaultSimulator,
    PackedFaultSimulator,
    fault_lane_mask,
    resolve_grading_kernel,
)
from repro.benchmarks_data.profiles import get_profile
from repro.experiments.workloads import (
    ATPG_GATE_LIMIT,
    build_workload,
    default_workload_names,
)


#: The default profiles whose cubes come from the PODEM flow.
PODEM_PROFILES = [
    name
    for name in default_workload_names(include_large=False)
    if get_profile(name).gates <= ATPG_GATE_LIMIT
]


def _random_patterns(circuit, n_patterns: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


def _patterns(circuit, n: int, seed: int = 0) -> TestSet:
    return TestSet.from_matrix(_random_patterns(circuit, n, seed=seed))


def _sample_faults(circuit, cap: int):
    faults = collapse_faults(circuit)
    if len(faults) > cap:
        stride = len(faults) / cap
        faults = [faults[int(i * stride)] for i in range(cap)]
    return faults


def _assert_same(reference, result, context=""):
    assert list(reference.detected.items()) == list(result.detected.items()), context
    assert reference.undetected == result.undetected, context
    assert reference.coverage == result.coverage, context


class TestFaultLaneMask:
    """The last fault word's unpopulated lanes never grade."""

    def test_values(self):
        assert fault_lane_mask(1) == 1
        assert fault_lane_mask(63) == (1 << 63) - 1
        assert fault_lane_mask(64) == (1 << 64) - 1
        assert fault_lane_mask(65) == 1
        assert fault_lane_mask(130) == 3

    def test_full_words_saturate(self):
        full = (1 << FAULT_WORD_LANES) - 1
        assert fault_lane_mask(FAULT_WORD_LANES) == full
        assert fault_lane_mask(4 * FAULT_WORD_LANES) == full


class TestKernelResolution:
    """The auto heuristic picks the kernel from the run's (patterns, faults) shape."""

    @pytest.mark.parametrize("mode", ["lanes", "faults"])
    def test_explicit_mode_passes_through(self, mode):
        assert resolve_grading_kernel(mode, 1, 10_000) == mode
        assert resolve_grading_kernel(mode, 10_000, 1) == mode

    def test_wide_pattern_sets_stay_on_lanes(self):
        assert resolve_grading_kernel("auto", 4097, 100_000) == "lanes"

    def test_many_faults_few_patterns_goes_to_faults(self):
        assert (
            resolve_grading_kernel(
                "auto",
                FAULTS_MODE_MAX_PATTERNS,
                FAULTS_MODE_FAULTS_PER_PATTERN * FAULTS_MODE_MAX_PATTERNS,
            )
            == "faults"
        )
        # PODEM's drop sweep shape: one filled cube, the whole remaining list.
        assert resolve_grading_kernel("auto", 1, 1000) == "faults"

    def test_middle_ground_stays_on_lanes(self):
        assert resolve_grading_kernel("auto", FAULTS_MODE_MAX_PATTERNS + 1, 1000) == "lanes"

    @pytest.mark.parametrize(
        "n_patterns, n_faults, kernel",
        [
            (1, 7, "lanes"),
            (1, 8, "faults"),
            (8, 63, "lanes"),
            (8, 64, "faults"),
            (9, 10_000, "lanes"),
        ],
    )
    def test_per_pattern_crossover(self, n_patterns, n_faults, kernel):
        # At least 8 faults per pattern, up to 8 patterns: a one-pattern
        # drop check goes to fault words from 8 remaining faults on.
        assert resolve_grading_kernel("auto", n_patterns, n_faults) == kernel

    def test_auto_run_reports_faults_kernel(self):
        circuit = generate_circuit(CircuitSpec("auto_faults", 8, 6, 120, seed=2))
        faults = full_fault_list(circuit)
        assert len(faults) >= FAULTS_MODE_FAULTS_PER_PATTERN * FAULTS_MODE_MAX_PATTERNS
        simulator = PackedFaultSimulator(circuit, mode="auto")
        result = simulator.run(_patterns(circuit, FAULTS_MODE_MAX_PATTERNS), faults)
        assert simulator.last_run_stats["fault_mode"] == "faults"
        reference = PackedFaultSimulator(circuit, mode="lanes").run(
            _patterns(circuit, FAULTS_MODE_MAX_PATTERNS), faults
        )
        _assert_same(reference, result)


class TestBenchmarkProfileParity:
    """naive × lanes × faults × auto over every benchmark profile."""

    @pytest.mark.parametrize("name", default_workload_names())
    def test_four_way_parity(self, name):
        workload = build_workload(name)
        circuit = workload.circuit
        # >= 2 fault words with a ragged tail; capped so the naive
        # reference stays affordable on the largest profiles.
        cap = 130 if circuit.n_gates <= 650 else 70
        faults = _sample_faults(circuit, cap)
        patterns = _patterns(circuit, 45, seed=7)
        reference = NaiveFaultSimulator(circuit).run(patterns, faults)
        for mode in ("lanes", "faults", "auto"):
            for drop in (True, False):
                result = PackedFaultSimulator(circuit, mode=mode).run(
                    patterns, faults, drop_detected=drop
                )
                _assert_same(reference, result, (name, mode, drop))


class TestPodemFaultPackedDrop:
    """The fault-packed drop sweep must not change a single ATPG byte."""

    def _assert_results_identical(self, a, b, context=""):
        assert np.array_equal(a.cubes.matrix, b.cubes.matrix), context
        assert a.circuit_name == b.circuit_name, context
        assert list(a.detected_faults.items()) == list(b.detected_faults.items()), context
        assert a.untestable_faults == b.untestable_faults, context
        assert a.aborted_faults == b.aborted_faults, context
        assert a.total_faults == b.total_faults, context

    def test_atpg_result_byte_identical_across_drop_modes(self, monkeypatch):
        kwargs = dict(max_faults=150, backtrack_limit=15, seed=0)
        for name in PODEM_PROFILES:
            circuit = build_workload(name).circuit
            monkeypatch.delenv(FAULT_MODE_ENV_VAR, raising=False)
            default = generate_test_cubes(circuit, **kwargs)
            monkeypatch.setenv(FAULT_MODE_ENV_VAR, "lanes")
            lanes = generate_test_cubes(circuit, **kwargs)
            monkeypatch.setenv(FAULT_MODE_ENV_VAR, "faults")
            faults_mode = generate_test_cubes(circuit, **kwargs)
            assert len(lanes.cubes) >= 1, name
            self._assert_results_identical(lanes, faults_mode, (name, "lanes vs faults"))
            self._assert_results_identical(lanes, default, (name, "lanes vs default"))
