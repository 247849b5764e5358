"""Unit and property tests for the logic simulators and the circuit generator."""

from __future__ import annotations

import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generator import CircuitSpec, generate_circuit, scaled_spec
from repro.circuit.library import b01_like_fsm, c17, itc99_like
from repro.cubes.bits import ONE, X, ZERO
from tests.reference_engines import LogicSimulator, ThreeValuedSimulator


def _c17_reference(g1, g2, g3, g6, g7):
    """Truth-table reference for the c17 outputs (G22, G23)."""
    g10 = not (g1 and g3)
    g11 = not (g3 and g6)
    g16 = not (g2 and g11)
    g19 = not (g11 and g7)
    g22 = not (g10 and g16)
    g23 = not (g16 and g19)
    return g22, g23


class TestLogicSimulator:
    def test_c17_against_truth_table(self):
        circuit = c17()
        simulator = LogicSimulator(circuit)
        patterns = np.array(
            [[(i >> b) & 1 for b in range(5)] for i in range(32)], dtype=np.int8
        )
        outputs = simulator.observe_outputs(patterns)
        for row, bits in enumerate(patterns):
            expected = _c17_reference(*[bool(v) for v in bits])
            assert tuple(outputs[row]) == expected

    def test_pattern_shape_validation(self):
        simulator = LogicSimulator(c17())
        with pytest.raises(ValueError):
            simulator.simulate(np.zeros((4, 3), dtype=np.int8))

    def test_rejects_x_bits(self):
        simulator = LogicSimulator(c17())
        patterns = np.full((2, 5), X, dtype=np.int8)
        with pytest.raises(ValueError):
            simulator.simulate(patterns)

    def test_gate_activity_lengths(self):
        circuit = b01_like_fsm()
        simulator = LogicSimulator(circuit)
        patterns = np.random.default_rng(0).integers(0, 2, size=(10, circuit.n_test_pins))
        activity = simulator.gate_activity(patterns)
        assert all(arr.shape == (9,) for arr in activity.values())

    def test_constant_patterns_produce_no_activity(self):
        circuit = b01_like_fsm()
        simulator = LogicSimulator(circuit)
        pattern = np.ones((5, circuit.n_test_pins), dtype=np.int8)
        activity = simulator.gate_activity(pattern)
        assert all(not arr.any() for arr in activity.values())

    def test_annotations_resolve(self):
        # Every name in the (postponed) annotations must be importable from
        # the module, or introspection raises NameError.
        hints = typing.get_type_hints(LogicSimulator.net_value_matrix)
        assert hints["return"] == typing.Tuple[typing.List[str], np.ndarray]


class TestThreeValuedSimulator:
    def test_agrees_with_boolean_simulation_when_fully_specified(self):
        circuit = c17()
        two_valued = LogicSimulator(circuit)
        three_valued = ThreeValuedSimulator(circuit)
        rng = np.random.default_rng(3)
        for _ in range(16):
            bits = rng.integers(0, 2, size=5).astype(np.int8)
            reference = two_valued.simulate(bits.reshape(1, -1))
            values = three_valued.simulate_cube(bits)
            for net, expected in reference.items():
                assert values[net] == int(expected[0])

    def test_x_inputs_propagate(self):
        circuit = c17()
        sim = ThreeValuedSimulator(circuit)
        values = sim.simulate_cube([X] * 5)
        assert values["G22"] == X and values["G23"] == X

    def test_controlling_input_blocks_x(self):
        circuit = c17()
        sim = ThreeValuedSimulator(circuit)
        # G10 = NAND(G1, G3); G1=0 forces G10=1 regardless of the X on G3.
        values = sim.simulate_cube([ZERO, X, X, X, X])
        assert values["G10"] == ONE

    def test_set_pin_validation(self):
        sim = ThreeValuedSimulator(c17())
        with pytest.raises(ValueError):
            sim.set_pin("not_a_pin", ONE)
        with pytest.raises(ValueError):
            sim.set_pin("G1", 7)

    def test_cube_length_validation(self):
        sim = ThreeValuedSimulator(c17())
        with pytest.raises(ValueError):
            sim.simulate_cube([0, 1])


class TestCircuitGenerator:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CircuitSpec(name="x", n_primary_inputs=0, n_flip_flops=1, n_gates=10)
        with pytest.raises(ValueError):
            CircuitSpec(name="x", n_primary_inputs=1, n_flip_flops=1, n_gates=0)
        with pytest.raises(ValueError):
            scaled_spec("x", 10, 10, 100, scale=0.0)

    def test_generated_circuit_matches_spec(self):
        spec = CircuitSpec(name="gen", n_primary_inputs=8, n_flip_flops=12, n_gates=150, seed=5)
        circuit = generate_circuit(spec)
        assert circuit.n_gates == 150
        assert circuit.n_flip_flops == 12
        assert len(circuit.primary_inputs) == 8
        circuit.validate()

    def test_generation_is_deterministic(self):
        spec = CircuitSpec(name="gen", n_primary_inputs=5, n_flip_flops=6, n_gates=80, seed=9)
        a, b = generate_circuit(spec), generate_circuit(spec)
        assert [g.inputs for g in a.gates.values()] == [g.inputs for g in b.gates.values()]

    @settings(max_examples=100, deadline=None)
    @given(
        n_inputs=st.integers(min_value=1, max_value=8),
        n_ffs=st.integers(min_value=0, max_value=10),
        n_gates=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_no_floating_nets(self, n_inputs, n_ffs, n_gates, seed):
        circuit = generate_circuit(CircuitSpec("gen", n_inputs, n_ffs, n_gates, seed=seed))
        counts = circuit.fanout_counts()  # a primary output counts as one reader
        assert [net for net in circuit.nets() if counts[net] < 1] == []
        outputs = circuit.primary_outputs
        assert len(set(outputs)) == len(outputs)
        for gate in circuit.gates.values():
            assert len(set(gate.inputs)) == len(gate.inputs), gate

    def test_depth_is_realistic(self):
        circuit = generate_circuit(
            CircuitSpec(name="gen", n_primary_inputs=10, n_flip_flops=20, n_gates=600, seed=1)
        )
        assert 5 <= circuit.depth() <= 80

    def test_itc99_like_profiles(self):
        circuit = itc99_like("b03")
        assert circuit.n_test_pins == 29
        assert circuit.n_gates == 103
        scaled = itc99_like("b17", scale=0.05)
        assert scaled.n_gates < 2000

    def test_itc99_like_is_deterministic(self):
        a, b = itc99_like("b08"), itc99_like("b08")
        assert [g.inputs for g in a.gates.values()] == [g.inputs for g in b.gates.values()]

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            itc99_like("b99")


@settings(max_examples=20, deadline=None)
@given(
    n_inputs=st.integers(min_value=1, max_value=8),
    n_ffs=st.integers(min_value=0, max_value=10),
    n_gates=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_generated_circuits_are_always_valid_and_simulable(n_inputs, n_ffs, n_gates, seed):
    """Property: every generated circuit validates and simulates cleanly."""
    spec = CircuitSpec(
        name="prop", n_primary_inputs=n_inputs, n_flip_flops=n_ffs, n_gates=n_gates, seed=seed
    )
    circuit = generate_circuit(spec)
    circuit.validate()
    simulator = LogicSimulator(circuit)
    patterns = np.random.default_rng(seed).integers(0, 2, size=(4, circuit.n_test_pins))
    outputs = simulator.observe_outputs(patterns)
    assert outputs.shape == (4, len(circuit.combinational_outputs))
