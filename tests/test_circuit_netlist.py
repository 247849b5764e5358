"""Unit tests for gates, the netlist container and the .bench front end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.bench_format import BenchParseError, parse_bench, write_bench
from repro.circuit.gates import GateType, controlling_value, evaluate_bool, evaluate_ternary
from repro.benchmarks_data.profiles import default_benchmark_names
from repro.circuit.library import b01_like_fsm, c17, itc99_like, ripple_counter, toy_pipeline
from repro.circuit.netlist import Circuit, CircuitError, Gate
from repro.cubes.bits import ONE, X, ZERO


class TestGateTypes:
    def test_from_name_aliases(self):
        assert GateType.from_name("buff") is GateType.BUF
        assert GateType.from_name("INV") is GateType.NOT
        assert GateType.from_name("nand") is GateType.NAND

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            GateType.from_name("MAJ")

    def test_arity_checks(self):
        assert GateType.NOT.arity_ok(1) and not GateType.NOT.arity_ok(2)
        assert GateType.AND.arity_ok(3) and not GateType.AND.arity_ok(1)
        assert GateType.INPUT.arity_ok(0) and not GateType.INPUT.arity_ok(1)

    def test_controlling_values(self):
        assert controlling_value(GateType.AND) == ZERO
        assert controlling_value(GateType.NOR) == ONE
        with pytest.raises(ValueError):
            controlling_value(GateType.XOR)


class TestGateEvaluation:
    def test_bool_truth_tables(self):
        a = np.array([False, False, True, True])
        b = np.array([False, True, False, True])
        np.testing.assert_array_equal(evaluate_bool(GateType.AND, [a, b]), a & b)
        np.testing.assert_array_equal(evaluate_bool(GateType.NAND, [a, b]), ~(a & b))
        np.testing.assert_array_equal(evaluate_bool(GateType.NOR, [a, b]), ~(a | b))
        np.testing.assert_array_equal(evaluate_bool(GateType.XNOR, [a, b]), ~(a ^ b))
        np.testing.assert_array_equal(evaluate_bool(GateType.NOT, [a]), ~a)

    def test_ternary_controlling_value_dominates_x(self):
        assert evaluate_ternary(GateType.AND, [ZERO, X]) == ZERO
        assert evaluate_ternary(GateType.OR, [ONE, X]) == ONE
        assert evaluate_ternary(GateType.NAND, [ZERO, X]) == ONE
        assert evaluate_ternary(GateType.NOR, [ONE, X]) == ZERO

    def test_ternary_x_propagates_otherwise(self):
        assert evaluate_ternary(GateType.AND, [ONE, X]) == X
        assert evaluate_ternary(GateType.XOR, [ONE, X]) == X
        assert evaluate_ternary(GateType.NOT, [X]) == X

    def test_ternary_fully_specified(self):
        assert evaluate_ternary(GateType.XOR, [ONE, ONE]) == ZERO
        assert evaluate_ternary(GateType.XNOR, [ONE, ZERO]) == ZERO


class TestCircuitConstruction:
    def test_duplicate_driver_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        with pytest.raises(CircuitError):
            circuit.add_gate("g", GateType.NOT, ["a"])
        with pytest.raises(CircuitError):
            circuit.add_gate("a", GateType.NOT, ["g"])

    def test_undriven_net_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.AND, ["a", "ghost"])
        circuit.add_output("g")
        with pytest.raises(CircuitError, match="undriven"):
            circuit.validate()

    def test_combinational_cycle_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.AND, ["a", "g2"])
        circuit.add_gate("g2", GateType.AND, ["a", "g1"])
        circuit.add_output("g1")
        with pytest.raises(CircuitError, match="cycle"):
            circuit.validate()

    def test_dff_feedback_is_not_a_cycle(self):
        circuit = b01_like_fsm()
        circuit.validate()
        assert circuit.n_flip_flops == 5

    def test_gate_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate(output="g", gate_type=GateType.AND, inputs=("a",))

    def test_duplicate_ports_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        circuit.add_output("g")
        with pytest.raises(CircuitError):
            circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_input("g")
        with pytest.raises(CircuitError):
            circuit.add_output("g")

    def test_is_primary_input(self):
        circuit = toy_pipeline()
        assert all(circuit.is_primary_input(net) for net in circuit.primary_inputs)
        assert not any(circuit.is_primary_input(net) for net in circuit.gates)
        assert not circuit.is_primary_input("no-such-net")

    def test_gates_is_a_read_only_live_view(self):
        circuit = Circuit()
        circuit.add_input("a")
        gate = circuit.add_gate("g", GateType.NOT, ["a"])
        gates = circuit.gates
        with pytest.raises(TypeError):
            gates["h"] = gate
        with pytest.raises(TypeError):
            del gates["g"]
        circuit.add_gate("h", GateType.BUF, ["g"])
        assert list(gates) == ["g", "h"]

    def test_cached_views_follow_mutation(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        assert circuit.n_gates == 1 and circuit.flip_flops == []
        circuit.add_gate("q", GateType.DFF, ["g"])
        circuit.add_gate("h", GateType.AND, ["a", "q"])
        assert circuit.n_gates == 2 and circuit.n_flip_flops == 1
        assert circuit.combinational_inputs == ["a", "q"]
        assert circuit.combinational_outputs == ["g"]
        circuit.flip_flops.clear()  # a copy: the cache is unaffected
        assert [ff.output for ff in circuit.flip_flops] == ["q"]


#: ``itc99_like(name, seed=0).structure_digest()`` pinned for every default
#: profile and for full-scale b17: circuit generation must reproduce every
#: netlist gate for gate (the cube cache and the golden report depend on it).
NETLIST_DIGESTS = {
    "b01": "8c2571466eb7b74e0e84876e05278a7a",
    "b02": "e88233acdc932b9a9ac8ae77ebb445c7",
    "b03": "028d4d36f5b9e39c3d140860afb576c8",
    "b04": "a0fa6683d883247e4806328f3bb57303",
    "b05": "277e253d2e9142670fe2586b18301239",
    "b06": "814cdf39b426d7bbf2fc684ff34d38eb",
    "b07": "52027185fa9050438b4a0ccf62bf6ec1",
    "b08": "82cc19fd4426cdf6dee898ce23ed2472",
    "b09": "c79c55fd0db8c6792ec3741a186c3b6b",
    "b10": "93f047839e61e55ea781dfc2c84cc241",
    "b11": "499b796be80980efd6a2bc93fe9cc3fc",
    "b12": "d4462f4fbbecb12d0d2843398d1ae90c",
    "b13": "7f2d9423fb856252ba78b4a2360f0c2a",
    "b17": "86b528ac3d32c3bf6b2f4d8bf93a004a",
}


def test_netlist_digests_cover_every_default_profile():
    assert set(default_benchmark_names()) <= set(NETLIST_DIGESTS)


@pytest.mark.parametrize("name", sorted(NETLIST_DIGESTS))
def test_generated_netlists_are_pinned(name):
    assert itc99_like(name, seed=0).structure_digest() == NETLIST_DIGESTS[name]


class TestCircuitAnalysis:
    def test_c17_statistics(self):
        circuit = c17()
        stats = circuit.stats()
        assert stats == {
            "primary_inputs": 5,
            "primary_outputs": 2,
            "flip_flops": 0,
            "gates": 6,
            "test_pins": 5,
            "depth": 3,
        }

    def test_topological_order_respects_dependencies(self):
        circuit = c17()
        order = circuit.topological_order()
        position = {net: i for i, net in enumerate(order)}
        for name in order:
            for net in circuit.get_gate(name).inputs:
                if net in position:
                    assert position[net] < position[name]

    def test_levelize_and_depth(self):
        circuit = c17()
        levels = circuit.levelize()
        assert levels["G10"] == 1 and levels["G22"] == 3
        assert circuit.depth() == 3

    def test_fanout_counts_include_outputs(self):
        circuit = c17()
        counts = circuit.fanout_counts()
        assert counts["G11"] == 2      # feeds G16 and G19
        assert counts["G22"] == 1      # primary output only

    def test_combinational_view_of_sequential_circuit(self):
        circuit = ripple_counter(3)
        assert circuit.n_test_pins == 1 + 3  # enable + 3 state bits
        assert set(circuit.combinational_outputs) >= {"sum0", "sum1", "sum2"}

    def test_transitive_fanin(self):
        circuit = c17()
        fanin = circuit.transitive_fanin("G22")
        assert "G1" in fanin and "G3" in fanin and "G7" not in fanin


class TestBenchFormat:
    def test_round_trip_preserves_structure(self):
        for circuit in (c17(), b01_like_fsm(), toy_pipeline(2, 3)):
            rebuilt = parse_bench(write_bench(circuit), name=circuit.name)
            assert rebuilt.n_gates == circuit.n_gates
            assert rebuilt.n_flip_flops == circuit.n_flip_flops
            assert rebuilt.primary_inputs == circuit.primary_inputs
            assert rebuilt.primary_outputs == circuit.primary_outputs

    def test_parse_handles_comments_and_blank_lines(self):
        text = """
        # a comment
        INPUT(a)

        OUTPUT(y)
        y = NOT(a)   # trailing comment
        """
        circuit = parse_bench(text)
        assert circuit.n_gates == 1

    def test_parse_error_reports_line(self):
        with pytest.raises(BenchParseError, match="line 2"):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = MYSTERY(a)\n")

    def test_structural_problems_surface_as_parse_errors(self):
        with pytest.raises((BenchParseError, CircuitError)):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
