"""Tests for the compiled bit-packed simulation engine (``repro.engine``).

The contract under test is *bit-for-bit parity*: on any circuit and any
fully specified pattern set, the packed engine must produce exactly the
same net values, fault-detection maps (including first-detecting pattern
indices) and power figures as the naive references of
``tests/reference_engines.py`` — across both grading kernels (``lanes`` and
``faults``) and including pattern counts that straddle the byte and
fault-dropping block seams.
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
    DROP_BLOCK_PATTERNS,
    FAULTS_MODE_MAX_PATTERNS,
    PackedFaultSimulator,
    PackedLogicSimulator,
    compile_circuit,
    compiled_program,
)
from repro.engine.packed import evaluate_lanes, lanes_to_matrix, pack_lanes
from repro.power.estimator import PowerEstimator
from tests.helpers import grading_kernel
from tests.reference_engines import LogicSimulator, NaiveFaultSimulator, naive_power_estimator

def all_gate_types_circuit():
    """A hand-built circuit containing every opcode the engine dispatches.

    The random generator never emits CONST gates and c17 is NAND-only, so
    this is the circuit that catches a divergent opcode among the three
    dispatch sites (``evaluate_lanes`` and the inline cone interpreters of
    the ``lanes`` and ``faults`` grading kernels).
    """
    from repro.circuit.gates import GateType
    from repro.circuit.netlist import Circuit

    circuit = Circuit("all_gates")
    for i in range(4):
        circuit.add_input(f"i{i}")
    circuit.add_gate("c0", GateType.CONST0, [])
    circuit.add_gate("c1", GateType.CONST1, [])
    circuit.add_gate("buf", GateType.BUF, ["i0"])
    circuit.add_gate("inv", GateType.NOT, ["i1"])
    circuit.add_gate("and2", GateType.AND, ["i0", "i1"])
    circuit.add_gate("and3", GateType.AND, ["i0", "i1", "i2"])
    circuit.add_gate("nand2", GateType.NAND, ["and2", "i3"])
    circuit.add_gate("or3", GateType.OR, ["buf", "inv", "c0"])
    circuit.add_gate("nor2", GateType.NOR, ["i2", "i3"])
    circuit.add_gate("xor3", GateType.XOR, ["i0", "i1", "i2"])
    circuit.add_gate("xnor2", GateType.XNOR, ["xor3", "c1"])
    circuit.add_gate("ff", GateType.DFF, ["xnor2"])
    circuit.add_gate("mix", GateType.AND, ["ff", "nor2", "nand2", "and3"])
    circuit.add_output("mix")
    circuit.add_output("or3")
    circuit.validate()
    return circuit


#: Circuits exercising every structural feature: flip-flops, fanout, depth,
#: and (via all_gate_types_circuit) every opcode including constants.
CIRCUITS = [
    pytest.param(all_gate_types_circuit, id="all_gate_types"),
    pytest.param(lambda: c17(), id="c17"),
    pytest.param(lambda: b01_like_fsm(), id="b01_fsm"),
    pytest.param(
        lambda: generate_circuit(CircuitSpec("rand_small", 6, 4, 60, seed=11)),
        id="rand_small",
    ),
    pytest.param(
        lambda: generate_circuit(CircuitSpec("rand_medium", 12, 20, 400, seed=5)),
        id="rand_medium",
    ),
    pytest.param(
        lambda: generate_circuit(CircuitSpec("rand_no_ff", 10, 0, 150, seed=3)),
        id="rand_no_ff",
    ),
]

#: Pattern counts straddling byte and 64-pattern boundaries plus the
#: single-pattern and wider cases.
PATTERN_COUNTS = [1, 7, 63, 64, 65, 130]


def _random_patterns(circuit, n_patterns: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


class TestCompile:
    def test_row_order_matches_naive_simulator(self):
        circuit = c17()
        program = compile_circuit(circuit)
        naive_order = list(LogicSimulator(circuit).simulate(_random_patterns(circuit, 2)))
        assert program.net_names == naive_order
        assert program.n_inputs == circuit.n_test_pins

    def test_output_rows_follow_combinational_outputs(self):
        circuit = b01_like_fsm()
        program = compile_circuit(circuit)
        names = [program.net_names[row] for row in program.output_rows]
        assert names == circuit.combinational_outputs

    def test_cone_is_topological_and_cached(self):
        circuit = c17()
        program = compile_circuit(circuit)
        row = program.net_index["G11"]
        cone = program.cone(row)
        assert list(cone.positions) == sorted(cone.positions)
        assert program.cone(row) is cone  # cached

    def test_pack_unpack_roundtrip_odd_width(self):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 2, size=(130, 9)).astype(bool)
        lanes = pack_lanes(matrix)
        assert len(lanes) == 9 and all(lane < (1 << 130) for lane in lanes)
        assert lanes[0] == sum(int(bit) << j for j, bit in enumerate(matrix[:, 0]))
        assert np.array_equal(lanes_to_matrix(lanes, 130), matrix.T)


class TestLogicParity:
    # One packed representation (big-int lanes); the axis keeps its id.
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("n_patterns", PATTERN_COUNTS)
    @pytest.mark.parametrize("representation", ["lanes"])
    def test_simulate_matches_naive(self, make_circuit, n_patterns, representation):
        circuit = make_circuit()
        patterns = _random_patterns(circuit, n_patterns, seed=n_patterns)
        naive = LogicSimulator(circuit).simulate(patterns)
        packed = PackedLogicSimulator(circuit).simulate(patterns)
        assert list(naive) == list(packed)  # same nets, same order
        for net in naive:
            assert np.array_equal(naive[net], packed[net]), net

    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_observe_outputs_and_activity_match(self, make_circuit):
        circuit = make_circuit()
        patterns = _random_patterns(circuit, 65, seed=1)
        naive = LogicSimulator(circuit)
        packed = PackedLogicSimulator(circuit)
        assert np.array_equal(
            naive.observe_outputs(patterns), packed.observe_outputs(patterns)
        )
        act_naive = naive.gate_activity(patterns)
        act_packed = packed.gate_activity(patterns)
        assert list(act_naive) == list(act_packed)
        for net in act_naive:
            assert np.array_equal(act_naive[net], act_packed[net]), net

    @pytest.mark.parametrize("n_patterns", [0, 1, 2, 8, 9, 17])
    def test_activity_matches_at_byte_seams(self, n_patterns):
        # The packed activity is unpacked from shift-xor flips: no boundary,
        # one boundary, and flips that end on or just past a byte.
        circuit = all_gate_types_circuit()
        patterns = _random_patterns(circuit, n_patterns, seed=5)
        act_naive = LogicSimulator(circuit).gate_activity(patterns)
        act_packed = PackedLogicSimulator(circuit).gate_activity(patterns)
        assert list(act_naive) == list(act_packed)
        for net in act_naive:
            assert act_packed[net].dtype == bool, net
            assert np.array_equal(act_naive[net], act_packed[net]), net

    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_net_value_matrix_parity(self, make_circuit):
        circuit = make_circuit()
        patterns = _random_patterns(circuit, 66, seed=4)
        nets_a, matrix_a = LogicSimulator(circuit).net_value_matrix(patterns)
        nets_b, matrix_b = PackedLogicSimulator(circuit).net_value_matrix(patterns)
        assert nets_a == nets_b
        assert np.array_equal(matrix_a, matrix_b)

    def test_rejects_partially_specified_patterns(self):
        circuit = c17()
        with pytest.raises(ValueError, match="fully specified"):
            PackedLogicSimulator(circuit).simulate(
                np.full((3, circuit.n_test_pins), 2, dtype=np.int8)
            )

    def test_rejects_wrong_width(self):
        circuit = c17()
        with pytest.raises(ValueError, match="shape"):
            PackedLogicSimulator(circuit).simulate(np.zeros((3, 99), dtype=np.int8))

    def test_zero_patterns(self):
        circuit = c17()
        values = PackedLogicSimulator(circuit).simulate(
            np.zeros((0, circuit.n_test_pins), dtype=np.int8)
        )
        assert all(arr.shape == (0,) for arr in values.values())


class TestTailMasking:
    """No lane may ever carry a bit beyond the pattern count."""

    @pytest.mark.parametrize("n_patterns", [1, 63, 65, 130])
    def test_evaluate_lanes_zeroes_tail_bits(self, n_patterns):
        # all_gate_types_circuit is full of inverting ops and a CONST1, the
        # only producers that could set bits past the pattern count.
        circuit = all_gate_types_circuit()
        matrix = _random_patterns(circuit, n_patterns, seed=3).astype(bool)
        mask = (1 << n_patterns) - 1
        lanes = evaluate_lanes(compile_circuit(circuit), pack_lanes(matrix), mask)
        assert all(0 <= lane <= mask for lane in lanes)
        assert any(lane == mask for lane in lanes)  # the CONST1 row

    def test_lanes_to_matrix_masks_unsanitised_lanes(self):
        # A lane with set bits past the pattern count (but inside its last
        # byte) still unpacks to exactly n_patterns columns.
        dirty = [(1 << 72) - 1] * 3
        values = lanes_to_matrix(dirty, 70)
        assert values.shape == (3, 70)
        assert values.all()


class TestFaultModes:
    """Every grading kernel must be bit-identical to the naive reference.

    Pattern counts cover the 64-pattern edges (1, 63, 64, 65) and a wide
    set (4097) with a ragged last fault-dropping block.
    """

    #: Small circuits keep the 4097-pattern naive reference affordable.
    MODE_CIRCUITS = [
        pytest.param(lambda: c17(), id="c17"),
        pytest.param(
            lambda: generate_circuit(CircuitSpec("rand_small", 6, 4, 60, seed=11)),
            id="rand_small",
        ),
    ]

    @pytest.mark.parametrize("make_circuit", MODE_CIRCUITS)
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 4097])
    def test_all_backends_and_modes_bit_identical(self, make_circuit, n_patterns):
        circuit = make_circuit()
        patterns = TestSet.from_matrix(
            _random_patterns(circuit, n_patterns, seed=n_patterns)
        )
        faults = full_fault_list(circuit)
        reference = NaiveFaultSimulator(circuit).run(patterns, faults)
        results = {}
        for mode in ("lanes", "faults", "auto"):
            with grading_kernel(mode):
                results[f"packed-{mode}"] = PackedFaultSimulator(circuit).run(
                    patterns, faults
                )
        for key, result in results.items():
            assert (
                list(result.detected.items()) == list(reference.detected.items())
            ), (key, n_patterns)
            assert result.undetected == reference.undetected, (key, n_patterns)

    def test_auto_mode_switches_at_lane_threshold(self):
        # Above FAULTS_MODE_MAX_PATTERNS, a run grades on lanes at any width.
        circuit = generate_circuit(CircuitSpec("auto_switch", 6, 4, 60, seed=11))
        simulator = PackedFaultSimulator(circuit)
        faults = full_fault_list(circuit)
        for n_patterns, kernel in [
            (FAULTS_MODE_MAX_PATTERNS, "faults"),
            (FAULTS_MODE_MAX_PATTERNS + 1, "lanes"),
            (4097, "lanes"),
        ]:
            patterns = TestSet.from_matrix(_random_patterns(circuit, n_patterns))
            simulator.run(patterns, faults)
            assert simulator.last_run_stats["fault_mode"] == kernel, n_patterns

    def test_faults_mode_drops_across_blocks(self):
        # Fault-parallel dropping must skip cone work, like the lanes path does.
        circuit = generate_circuit(CircuitSpec("word_drop", 8, 6, 120, seed=1))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 300, seed=1))
        faults = full_fault_list(circuit)
        simulator = PackedFaultSimulator(circuit, block_patterns=64)
        with grading_kernel("faults"):
            result = simulator.run(patterns, faults, drop_detected=True)
        stats = dict(simulator.last_run_stats)
        assert stats["fault_mode"] == "faults"
        assert stats["blocks"] > 1
        assert stats["dropped_block_evaluations"] > 0
        with grading_kernel("lanes"):
            reference = PackedFaultSimulator(circuit).run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())


class TestDuplicateFaults:
    """Duplicate faults must collapse to one entry, not skew coverage."""

    @pytest.mark.parametrize("mode", ["lanes", "faults"])
    def test_duplicates_counted_once(self, mode):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 40, seed=5))
        base = full_fault_list(circuit)
        duplicated = base + base[:5] + [base[0]]
        for simulator in (NaiveFaultSimulator(circuit), PackedFaultSimulator(circuit)):
            with grading_kernel(mode):
                res_dup = simulator.run(patterns, duplicated)
                res_base = simulator.run(patterns, base)
            assert list(res_dup.detected.items()) == list(res_base.detected.items())
            assert res_dup.undetected == res_base.undetected
            assert res_dup.coverage == res_base.coverage

    def test_undetectable_duplicates_do_not_double_count(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 8, seed=0))
        ghost = StuckAtFault("no_such_net", 0)
        detected = full_fault_list(circuit)[0]
        result = PackedFaultSimulator(circuit).run(patterns, [ghost, ghost, detected])
        assert result.undetected == [ghost]
        total = result.detected_count + len(result.undetected)
        assert total == 2 and result.coverage == result.detected_count / 2

    def test_empty_pattern_set_dedupes(self):
        circuit = c17()
        fault = full_fault_list(circuit)[0]
        result = PackedFaultSimulator(circuit).run(TestSet([]), [fault, fault])
        assert result.undetected == [fault]

    def test_duplicates_cost_no_grading_work(self):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 40, seed=5))
        base = full_fault_list(circuit)
        simulator = PackedFaultSimulator(circuit)
        simulator.run(patterns, base)
        base_evaluations = simulator.last_run_stats["cone_evaluations"]
        simulator.run(patterns, base + base)
        assert simulator.last_run_stats["cone_evaluations"] == base_evaluations


class TestFaultParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("n_patterns", [1, 63, 65, 130])
    @pytest.mark.parametrize("drop", [True, False])
    def test_detection_map_parity(self, make_circuit, n_patterns, drop):
        circuit = make_circuit()
        patterns = TestSet.from_matrix(_random_patterns(circuit, n_patterns, seed=9))
        faults = full_fault_list(circuit)
        naive = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        packed = PackedFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
        # Bit-for-bit: same faults, same first-detecting indices, same order.
        assert list(naive.detected.items()) == list(packed.detected.items())
        assert naive.undetected == packed.undetected
        assert naive.coverage == packed.coverage

    def test_facade_backends_agree_on_collapsed_faults(self):
        circuit = generate_circuit(CircuitSpec("parity", 8, 6, 200, seed=21))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 70, seed=2))
        faults = collapse_faults(circuit)
        res_naive = NaiveFaultSimulator(circuit).run(patterns, faults)
        res_packed = FaultSimulator(circuit).run(patterns, faults)
        assert list(res_naive.detected.items()) == list(res_packed.detected.items())
        assert res_naive.undetected == res_packed.undetected

    # block=3 exercises the shift-based good-block slicing, block=8 the
    # byte-window fast path (including a ragged 2-pattern final block).
    @pytest.mark.parametrize("block_patterns", [3, 8])
    def test_blocking_does_not_change_first_index(self, block_patterns):
        circuit = b01_like_fsm()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 50, seed=6))
        faults = full_fault_list(circuit)
        reference = PackedFaultSimulator(circuit, block_patterns=10 ** 9).run(
            patterns, faults
        )
        blocked = PackedFaultSimulator(circuit, block_patterns=block_patterns).run(
            patterns, faults
        )
        assert list(reference.detected.items()) == list(blocked.detected.items())
        assert reference.undetected == blocked.undetected

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
        for simulator in (NaiveFaultSimulator(circuit), FaultSimulator(circuit)):
            result = simulator.run(patterns, [ghost])
            assert result.undetected == [ghost]


class TestFaultDropping:
    """The historical ``drop_detected`` flag was a no-op; now it must skip work."""

    def _setup(self):
        circuit = generate_circuit(CircuitSpec("dropper", 8, 6, 120, seed=1))
        n_patterns = 3 * DROP_BLOCK_PATTERNS  # several blocks
        patterns = TestSet.from_matrix(_random_patterns(circuit, n_patterns, seed=1))
        return circuit, patterns, full_fault_list(circuit)

    @pytest.mark.parametrize("simulator_cls", [NaiveFaultSimulator, PackedFaultSimulator])
    def test_dropping_skips_cone_evaluations(self, simulator_cls):
        circuit, patterns, faults = self._setup()
        simulator = simulator_cls(circuit)
        with_drop = simulator.run(patterns, faults, drop_detected=True)
        stats_drop = dict(simulator.last_run_stats)
        without_drop = simulator.run(patterns, faults, drop_detected=False)
        stats_full = dict(simulator.last_run_stats)
        # Identical results...
        assert list(with_drop.detected.items()) == list(without_drop.detected.items())
        assert with_drop.undetected == without_drop.undetected
        # ...while dropping really skips cone re-evaluations: every detected
        # fault is absent from the blocks after its detecting one.
        assert stats_drop["blocks"] > 1
        assert stats_drop["dropped_block_evaluations"] > 0
        evaluable = stats_full["cone_evaluations"]  # one full-width pass
        assert stats_full["blocks"] == 1
        assert stats_full["dropped_block_evaluations"] == 0
        # At equal blocking, a no-drop run would cost blocks * evaluable cone
        # evaluations; the dropping run did strictly fewer.
        assert (
            stats_drop["cone_evaluations"]
            < stats_drop["blocks"] * evaluable
        )
        assert (
            stats_drop["cone_evaluations"] + stats_drop["dropped_block_evaluations"]
            <= stats_drop["blocks"] * evaluable
        )

    def test_all_detected_short_circuits_remaining_blocks(self):
        circuit = c17()  # fully testable: random patterns detect everything
        patterns = TestSet.from_matrix(
            _random_patterns(circuit, 4 * DROP_BLOCK_PATTERNS, seed=0)
        )
        simulator = PackedFaultSimulator(circuit)
        result = simulator.run(patterns, collapse_faults(circuit))
        assert result.coverage == 1.0
        assert simulator.last_run_stats["blocks"] == 1


class TestPowerParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_power_reports_identical(self, make_circuit):
        circuit = make_circuit()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 65, seed=8))
        naive = naive_power_estimator(circuit).estimate(patterns)
        packed = PowerEstimator(circuit).estimate(patterns)
        assert naive.peak_power_uw == packed.peak_power_uw  # exact, not approx
        assert naive.average_power_uw == packed.average_power_uw
        assert naive.peak_boundary == packed.peak_boundary
        assert np.array_equal(
            naive.activity.toggles_per_boundary, packed.activity.toggles_per_boundary
        )
        assert np.array_equal(
            naive.activity.switched_capacitance_ff,
            packed.activity.switched_capacitance_ff,
        )


class TestBackendRegistry:
    """The process-wide compiled-program cache (:func:`compiled_program`)."""

    def test_packed_backend_compiles_once_per_circuit(self):
        circuit = c17()
        program = compiled_program(circuit)
        assert compiled_program(circuit) is program
        assert PackedFaultSimulator(circuit).program is program
        assert PackedLogicSimulator(circuit).program is program
        assert FaultSimulator(circuit).program is program

    def test_packed_program_cache_invalidated_on_mutation(self):
        from repro.circuit.gates import GateType

        circuit = generate_circuit(CircuitSpec("mutant", 4, 0, 20, seed=0))
        before = PackedFaultSimulator(circuit).program
        circuit.add_gate("late_gate", GateType.NOT, [circuit.primary_inputs[0]])
        circuit.add_output("late_gate")
        after = PackedFaultSimulator(circuit).program
        assert after is not before
        assert after is compiled_program(circuit)
        assert "late_gate" in after.net_index
        # The recompiled program simulates the mutated netlist correctly.
        patterns = _random_patterns(circuit, 65, seed=0)
        naive = LogicSimulator(circuit).simulate(patterns)
        packed = PackedLogicSimulator(circuit).simulate(patterns)
        for net in naive:
            assert np.array_equal(naive[net], packed[net]), net
