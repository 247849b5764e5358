"""Unit tests for the capacitance and switching-power model."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.circuit.library import b01_like_fsm, c17, itc99_like
from repro.cubes.cube import TestSet
from repro.cubes.generator import generate_cube_set_like, random_fully_specified_set
from repro.engine.compile import compiled_program
from repro.filling import get_filler
from repro.engine.packed import PackedLogicSimulator
from repro.power.capacitance import (
    CAPACITANCE_QUANTUM_FF,
    MAX_TOTAL_CAPACITANCE_FF,
    CapacitanceModel,
    TechnologyParameters,
    extract_capacitances,
    row_capacitances,
)
from repro.power.estimator import PowerEstimator
from repro.power import switching
from repro.power.switching import switching_activities, weighted_switching_activity
from tests.helpers import lazy_program_fields


class TestCapacitanceModel:
    def test_every_net_has_positive_capacitance(self):
        circuit = c17()
        model = extract_capacitances(circuit)
        assert set(model.net_capacitance_ff) == set(circuit.nets())
        assert all(value > 0 for value in model.net_capacitance_ff.values())

    def test_extraction_is_deterministic(self):
        circuit = c17()
        a = extract_capacitances(circuit, seed=4)
        b = extract_capacitances(circuit, seed=4)
        assert a.net_capacitance_ff == b.net_capacitance_ff

    def test_fanout_correlation(self):
        circuit = c17()
        model = extract_capacitances(circuit)
        counts = circuit.fanout_counts()
        high = [model.capacitance_of(n) for n, c in counts.items() if c >= 2]
        low = [model.capacitance_of(n) for n, c in counts.items() if c == 1]
        assert np.mean(high) > np.mean(low)

    @pytest.mark.parametrize("name", ["b01", "b10", "b14"])
    def test_row_capacitances_match_the_model(self, name):
        circuit = itc99_like(name, seed=0)
        technology = TechnologyParameters(wire_variation=0.5)
        rows = circuit.combinational_inputs + circuit.topological_order()
        expected = extract_capacitances(circuit, technology, seed=3).as_array(rows)
        actual = row_capacitances(circuit, technology, seed=3)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

    def test_estimator_reads_row_capacitances(self):
        circuit = c17()
        estimator = PowerEstimator(circuit, seed=2)
        assert "capacitance" not in estimator.__dict__
        rows = circuit.combinational_inputs + circuit.topological_order()
        assert estimator._caps.tobytes() == estimator.capacitance.as_array(rows).tobytes()

    def test_capacitances_are_dyadic_and_bounded(self):
        """Every capacitance is a whole number of 2**-24 fF quanta, so power
        sums are exact in any order; a total at the exact-sum bound raises."""
        assert CAPACITANCE_QUANTUM_FF == 2.0 ** -24
        assert MAX_TOTAL_CAPACITANCE_FF == 2.0 ** 29
        caps = row_capacitances(itc99_like("b14", seed=0), TechnologyParameters(wire_variation=0.5))
        quanta = caps * 2 ** 24
        assert np.array_equal(quanta, np.round(quanta))
        huge = TechnologyParameters(gate_input_cap_ff=MAX_TOTAL_CAPACITANCE_FF / 4)
        for extract in (extract_capacitances, row_capacitances):
            with pytest.raises(ValueError, match="exact-sum bound"):
                extract(c17(), huge)

    def test_caller_built_capacitances_grade_sets_jointly_as_alone(self):
        """A hand-built model is put on the 2**-24 fF grid like an extracted
        one, so grading sets of 40, 2 and 33 patterns in one pass equals
        grading each set alone, byte for byte."""
        circuit = itc99_like("b10")
        extracted = extract_capacitances(circuit)
        simulator = PackedLogicSimulator(circuit)
        rng = np.random.default_rng(0)
        for trial in range(4):
            model = CapacitanceModel(
                circuit.name,
                extracted.technology,
                {
                    net: value * (1.0 + 1e-3 * rng.random())
                    for net, value in extracted.net_capacitance_ff.items()
                },
            )
            sets = [
                random_fully_specified_set(circuit.n_test_pins, n, seed=3 * trial + k)
                for k, n in enumerate((40, 2, 33))
            ]
            joint = switching_activities(circuit, sets, model, simulator)
            for patterns, activity in zip(sets, joint):
                alone = weighted_switching_activity(circuit, patterns, model, simulator)
                assert activity.toggles_per_boundary.tobytes() == alone.toggles_per_boundary.tobytes()
                assert (
                    activity.switched_capacitance_ff.tobytes()
                    == alone.switched_capacitance_ff.tobytes()
                )

    def test_invalid_technology_parameters(self):
        with pytest.raises(ValueError):
            TechnologyParameters(gate_input_cap_ff=0.0)
        with pytest.raises(ValueError):
            TechnologyParameters(wire_variation=1.5)
        with pytest.raises(ValueError):
            TechnologyParameters(supply_voltage=-1.0)


class TestSwitchingAndPower:
    def test_identical_patterns_switch_nothing(self):
        circuit = b01_like_fsm()
        pattern = np.ones((4, circuit.n_test_pins), dtype=np.int8)
        activity = weighted_switching_activity(circuit, TestSet.from_matrix(pattern))
        assert activity.peak_toggles == 0
        assert activity.peak_switched_capacitance_ff == 0.0

    def test_requires_filled_patterns(self):
        circuit = b01_like_fsm()
        cubes = TestSet.from_strings(["0X" + "0" * (circuit.n_test_pins - 2)] * 2)
        with pytest.raises(ValueError):
            weighted_switching_activity(circuit, cubes)

    def test_power_report_fields(self):
        circuit = b01_like_fsm()
        patterns = random_fully_specified_set(circuit.n_test_pins, 10, seed=5)
        report = PowerEstimator(circuit).estimate(patterns)
        assert report.peak_power_uw >= report.average_power_uw >= 0.0
        assert 0 <= report.peak_boundary < len(patterns) - 1
        assert report.peak_input_toggles > 0

    def test_single_pattern_has_zero_power(self):
        circuit = b01_like_fsm()
        report = PowerEstimator(circuit).estimate(
            random_fully_specified_set(circuit.n_test_pins, 1, seed=0)
        )
        assert report.peak_power_uw == 0.0 and report.peak_boundary == -1

    def test_dpfill_reduces_peak_power_vs_zero_fill_on_x_rich_set(self):
        """Integration: on an X-dominated cube set the DP-filled patterns burn
        less peak capture power than 0-fill under the same extraction."""
        circuit = itc99_like("b10")
        cubes = generate_cube_set_like(circuit.n_test_pins, 32, 70.0, seed=10)
        estimator = PowerEstimator(circuit)
        zero = estimator.estimate(get_filler("0-fill").fill(cubes))
        optimal = estimator.estimate(get_filler("DP-fill").fill(cubes))
        assert optimal.peak_power_uw <= zero.peak_power_uw

    def test_estimate_memory_is_bounded_by_the_value_table(self):
        """An estimate streams the switched capacitance in row blocks: its
        traced peak stays within a small multiple of the bool value table
        (a dense float toggle table alone would be 8x)."""
        circuit = itc99_like("b14")
        n_nets, n_patterns = len(circuit.nets()), 512
        assert n_nets > switching._BLOCK_ROWS
        patterns = random_fully_specified_set(circuit.n_test_pins, n_patterns, seed=1)
        estimator = PowerEstimator(circuit)
        estimator.estimate(patterns)  # compile, resolve caps: not the estimate's cost
        tracemalloc.start()
        try:
            estimator.estimate(patterns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n_nets * n_patterns

    @pytest.mark.parametrize("n_patterns", [512, 2048])
    def test_packed_estimate_builds_no_value_table(self, n_patterns):
        """An estimate streams packed boundary flips a
        node block at a time and drops each lane after its last reader: its
        traced peak stays below a fifth of the bool value table it never
        builds (measured ~0.16x and ~0.10x; a full flips table, the lanes of
        every net and 512-row product blocks measured ~1.05x)."""
        circuit = itc99_like("b14")
        n_nets = len(circuit.nets())
        patterns = random_fully_specified_set(circuit.n_test_pins, n_patterns, seed=1)
        estimator = PowerEstimator(circuit)
        estimator.estimate(patterns)  # compile: not the estimate's cost
        tracemalloc.start()
        try:
            estimator.estimate(patterns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * n_nets * n_patterns

    def test_packed_batch_streams_below_its_flips_table(self):
        """Grading five 256-pattern sets in one pass stays below the packed
        flips table of the whole batch, one bit per net and boundary of the
        joint set, which a stacked full-table grading builds (that measured
        ~8.8x this bound, the streamed pass ~0.92x)."""
        circuit = itc99_like("b14")
        sets = [random_fully_specified_set(circuit.n_test_pins, 256, seed=seed) for seed in range(5)]
        flips_table = len(circuit.nets()) * ((5 * 256 - 1 + 7) // 8)
        estimator = PowerEstimator(circuit)
        estimator.estimate_many(sets)  # compile: not the grading's cost
        tracemalloc.start()
        try:
            estimator.estimate_many(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < flips_table

    def test_packed_estimate_builds_no_podem_structures(self):
        """Power grading reads only what logic simulation needs: the compiled
        program's PODEM and fault-simulation fields stay unbuilt."""
        circuit = itc99_like("b10")
        patterns = random_fully_specified_set(circuit.n_test_pins, 16, seed=3)
        PowerEstimator(circuit).estimate(patterns)
        program = compiled_program(circuit)
        lazy = lazy_program_fields()
        assert lazy and not set(lazy) & set(program.__dict__)
        program.reader_lists  # noqa: B018 - forcing one builds it
        assert "reader_lists" in program.__dict__

