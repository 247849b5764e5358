"""Unit tests for gates, the netlist container and the .bench front end.

The netlist's array passes (:meth:`Circuit.from_columns`' checks,
validation, the wave-form Kahn sort, the compiler, the lane release
schedule and the capacitance rows) are checked against the per-gate loops
they replaced, kept in ``tests/helpers.py``: on hypothesis netlists built
gate by gate and in bulk, on every default profile, and by digests pinned
for every profile.
"""

from __future__ import annotations

import functools
import random
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.bench_format import BenchParseError, parse_bench, write_bench
from repro.circuit.gates import GateType
from repro.benchmarks_data.profiles import all_profiles, default_benchmark_names, get_profile
from repro.circuit.library import b01_like_fsm, c17, itc99_like, ripple_counter, toy_pipeline
from repro.circuit.netlist import Circuit, CircuitError, Gate
from repro.cubes.bits import ONE, X, ZERO
from repro.engine.compile import compile_circuit
from repro.engine.packed import _NODE_BLOCK, release_schedule
from repro.experiments.workloads import SCALED_GATE_TARGET
from repro.power.capacitance import TechnologyParameters, row_capacitances
from tests.helpers import (
    reference_compile_columns,
    reference_from_columns,
    reference_node_prog,
    reference_release_schedule,
    reference_row_capacitances,
    reference_topological_gates,
    reference_validate,
)
from tests.reference_engines import controlling_value, evaluate_bool, evaluate_ternary


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
        # Every type and arity against the predicates written as comparisons
        # with the enum members, as they were before the table lookups.
        for gate_type in GateType:
            is_source = gate_type in (GateType.INPUT, GateType.CONST0, GateType.CONST1)
            assert gate_type.is_source is is_source, gate_type
            assert gate_type.is_sequential is (gate_type is GateType.DFF), gate_type
            for n_inputs in range(5):
                if is_source:
                    expected = n_inputs == 0
                elif gate_type in (GateType.BUF, GateType.NOT, GateType.DFF):
                    expected = n_inputs == 1
                else:
                    expected = n_inputs >= 2
                assert gate_type.arity_ok(n_inputs) is expected, (gate_type, n_inputs)

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


def _edit(column, **rows):
    """``FIRST_PROBLEM_BASE[column]`` with entries replaced, keyed ``g<index>``."""
    edited = list(FIRST_PROBLEM_BASE[column])
    for key, value in rows.items():
        edited[int(key[1:])] = value
    return edited


#: A valid netlist: inputs a, b; g0 = AND(a, b), g1 = NOT(g0), g2 = OR(g0, g1),
#: g3 = NAND(g2, a), g4 = DFF(g3); g3 observed; net u (id 7) never driven.
FIRST_PROBLEM_BASE = dict(
    net_names=["a", "b", "g0", "g1", "g2", "g3", "g4", "u"],
    inputs=[0, 1],
    gate_net=[2, 3, 4, 5, 6],
    gate_type=[GateType.AND, GateType.NOT, GateType.OR, GateType.NAND, GateType.DFF],
    gate_fanin=[(0, 1), (2,), (2, 3), (4, 0), (5,)],
    outputs=[5],
)

#: What :meth:`Circuit.validate` says of an INPUT-type gate ``g2``.
INPUT_GATE_MESSAGE = "gate 'g2': INPUT is a primary input, not a gate"

#: Columns with two or more problems, and the message of the one the
#: per-gate checks meet first (recorded before the checks became array
#: passes, and before INPUT-type gates were rejected).
FIRST_PROBLEM_CASES = [
    # gate 3 has a bad arity, gate 1 drives a net gate 0 drives
    (dict(gate_fanin=_edit("gate_fanin", g3=(4,)), gate_net=_edit("gate_net", g1=2)),
     "net 'g0' already driven by a gate"),
    # gate 1 has a bad arity, gate 3 drives a primary input
    (dict(gate_fanin=_edit("gate_fanin", g1=(2, 0)), gate_net=_edit("gate_net", g3=1)),
     "gate 'g1': NOT cannot take 2 inputs"),
    # gate 0 reads an undriven net, gate 2 has a bad arity
    (dict(gate_fanin=_edit("gate_fanin", g0=(0, 7), g2=(2,))),
     "gate 'g2': OR cannot take 1 inputs"),
    # gates 1 and 3 read an undriven net
    (dict(gate_fanin=_edit("gate_fanin", g1=(7,), g3=(7, 0))),
     "gate 'g1' reads undriven net 'u'"),
    # gate 2 reads an undriven net, and an output is undriven
    (dict(gate_fanin=_edit("gate_fanin", g2=(7, 1)), outputs=[5, 7]),
     "gate 'g2' reads undriven net 'u'"),
    # gates 1 and 2 form a cycle, gate 3 reads an undriven net
    (dict(gate_fanin=_edit("gate_fanin", g1=(4,), g3=(7, 0))),
     "gate 'g3' reads undriven net 'u'"),
    # an output is repeated, gate 4 drives a primary input
    (dict(outputs=[5, 5], gate_net=_edit("gate_net", g4=0)), "net 'a' is a primary input"),
    # an input is repeated, gate 0 drives a primary input
    (dict(inputs=[0, 1, 0], gate_net=_edit("gate_net", g0=1)), "duplicate primary input 'a'"),
    # a net name is repeated, gate 4 reads an id out of range
    (dict(net_names=["a", "b", "g0", "g1", "g2", "g3", "g4", "a"],
          gate_fanin=_edit("gate_fanin", g4=(9,))),
     "duplicate net name 'a'"),
    # an input is repeated, gate 2 reads an id out of range
    (dict(inputs=[0, 1, 1], gate_fanin=_edit("gate_fanin", g2=(2, 8))), "net id out of range"),
    # gate 2 reads itself, the flip-flop (gate 4) reads an undriven net
    (dict(gate_fanin=_edit("gate_fanin", g2=(4, 3), g4=(7,))), "gate 'g4' reads undriven net 'u'"),
    # gates 2 and 3 drive the net gate 1 drives
    (dict(gate_net=_edit("gate_net", g2=3, g3=3)), "net 'g1' already driven by a gate"),
    # gate 3 drives a primary input, the flip-flop (gate 4) reads nothing
    (dict(gate_net=_edit("gate_net", g3=1), gate_fanin=_edit("gate_fanin", g4=())),
     "net 'b' is a primary input"),
    # gate 2 drives a primary input and has a bad arity
    (dict(gate_net=_edit("gate_net", g2=0), gate_fanin=_edit("gate_fanin", g2=(2,))),
     "net 'a' is a primary input"),
    # gate 2 drives the net gate 1 drives and has a bad arity
    (dict(gate_net=_edit("gate_net", g2=3), gate_fanin=_edit("gate_fanin", g2=(2,))),
     "net 'g1' already driven by a gate"),
    # a negative net id
    (dict(gate_fanin=_edit("gate_fanin", g1=(-1,))), "net id out of range"),
    # gate 0 reads an undriven net twice, gate 1 is a constant with an input
    (dict(gate_fanin=_edit("gate_fanin", g0=(0, 7, 7)),
          gate_type=_edit("gate_type", g1=GateType.CONST0)),
     "gate 'g1': CONST0 cannot take 1 inputs"),
    # gates 1 and 2 form a cycle, the flip-flop reads an undriven net
    (dict(gate_fanin=_edit("gate_fanin", g1=(4,), g4=(7,))), "gate 'g4' reads undriven net 'u'"),
    # an undriven output is repeated
    (dict(outputs=[7, 5, 7]), "duplicate primary output 'u'"),
    # gates 1 and 2 form a cycle, the only output is undriven
    (dict(gate_fanin=_edit("gate_fanin", g1=(4,)), outputs=[7]), "primary output 'u' is undriven"),
    # gates 1 and 2 form a cycle
    (dict(gate_fanin=_edit("gate_fanin", g1=(4,))), "combinational logic contains a cycle"),
    # gate 3 reads an undriven net at its second pin
    (dict(gate_fanin=_edit("gate_fanin", g3=(4, 7))), "gate 'g3' reads undriven net 'u'"),
    # gate 1 is an INPUT-type gate with an input (the arity check sees it first)
    (dict(gate_type=_edit("gate_type", g1=GateType.INPUT)),
     "gate 'g1': INPUT cannot take 1 inputs"),
    # gate 2 is an INPUT-type gate, gate 4 drives a primary input
    (dict(gate_type=_edit("gate_type", g2=GateType.INPUT), gate_fanin=_edit("gate_fanin", g2=()),
          gate_net=_edit("gate_net", g4=0)),
     "net 'a' is a primary input"),
    # gate 2 is an INPUT-type gate
    (dict(gate_type=_edit("gate_type", g2=GateType.INPUT), gate_fanin=_edit("gate_fanin", g2=())),
     INPUT_GATE_MESSAGE),
    # gate 2 is an INPUT-type gate, gate 3 reads an undriven net (reported as
    # the undriven read while INPUT-type gates passed)
    (dict(gate_type=_edit("gate_type", g2=GateType.INPUT),
          gate_fanin=_edit("gate_fanin", g2=(), g3=(7, 0))),
     INPUT_GATE_MESSAGE),
    # gate 3 is an INPUT-type gate, gates 1 and 2 form a cycle
    (dict(gate_type=_edit("gate_type", g3=GateType.INPUT),
          gate_fanin=_edit("gate_fanin", g3=(), g1=(4,))),
     INPUT_GATE_MESSAGE.replace("g2", "g3")),
]


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

    def test_input_type_gate_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("s", GateType.INPUT, [])
        circuit.add_gate("y", GateType.AND, ["a", "s"])
        circuit.add_output("y")
        message = "gate 's': INPUT is a primary input, not a gate"
        with pytest.raises(CircuitError, match=message):
            circuit.validate()
        with pytest.raises(CircuitError, match=message):
            compile_circuit(circuit)

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

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(net_names=["a", "a", "g"]), "duplicate net name"),
            (dict(inputs=[0, 0]), "duplicate primary input"),
            (dict(gate_net=[1, 1], gate_type=[GateType.NOT] * 2, gate_fanin=[(0,)] * 2),
             "already driven"),
            (dict(gate_net=[0], gate_fanin=[(0,)]), "is a primary input"),
            (dict(gate_type=[GateType.AND]), "cannot take 1 inputs"),
            (dict(gate_fanin=[(2,)]), "reads undriven net 'b'"),
            (dict(outputs=[2]), "primary output 'b' is undriven"),
            (dict(outputs=[1, 1]), "duplicate primary output"),
            (dict(gate_fanin=[(1,)]), "cycle"),
            (dict(gate_fanin=[(3,)]), "out of range"),
            (dict(gate_type=[]), "differ in length"),
            (dict(gate_type=[GateType.INPUT], gate_fanin=[()]), "INPUT is a primary input"),
        ],
    )
    def test_from_columns_runs_every_check(self, change, message):
        # A valid base: input a (id 0) drives g = NOT(a) (id 1), observed.
        columns = dict(
            net_names=["a", "g", "b"],
            inputs=[0],
            gate_net=[1],
            gate_type=[GateType.NOT],
            gate_fanin=[(0,)],
            outputs=[1],
        )
        Circuit.from_columns("ok", **columns).validate()
        columns.update(change)
        with pytest.raises(CircuitError, match=message):
            Circuit.from_columns("bad", **columns)

    @pytest.mark.parametrize(
        "change, message", FIRST_PROBLEM_CASES, ids=range(len(FIRST_PROBLEM_CASES))
    )
    def test_from_columns_reports_the_first_problem(self, change, message):
        columns = dict(FIRST_PROBLEM_BASE, **change)
        with pytest.raises(CircuitError) as raised:
            Circuit.from_columns("bad", **columns)
        assert str(raised.value) == message
        with pytest.raises(CircuitError) as raised:
            reference_from_columns("bad", **columns)
        assert str(raised.value) == message

    def test_bulk_built_circuit_materialises_gates_on_demand(self):
        circuit = itc99_like("b05", seed=0)
        circuit.structure_digest()
        compile_circuit(circuit)
        assert circuit._gate_cache == {}  # columns only, up to here
        gate = circuit.get_gate("g7")
        assert circuit.gates["g7"] is gate and list(circuit._gate_cache) == [7]

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


#: ``itc99_like(name, seed=0).structure_digest()`` pinned for every profile
#: at full size: circuit generation must reproduce every netlist gate for
#: gate (the cube cache and the golden report depend on it).
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
    "b14": "24370dc4ffd25d2ec9c1cabed8971417",
    "b15": "1ca64893e877c710d997ebac0bd8edf5",
    "b17": "86b528ac3d32c3bf6b2f4d8bf93a004a",
    "b18": "11e70646778ad7985df3440111be9006",
    "b19": "8928cd18455fcf45c33f380c9f7cab90",
    "b20": "daea6768a66cd08959eba2dac9857eab",
    "b21": "29df4255453e25cade15d486f6b1416b",
    "b22": "f9d4a694b8524a0c856eb3c7ed0877b2",
}

#: blake2b-16 of ``"|".join(itc99_like(name, seed=0).topological_order())``
#: for full-size circuits.  The order fixes the compiled row order, hence
#: PODEM's tie-breaks.
TOPO_ORDER_DIGESTS = {
    "b14": "fe3b774b6a26bdc691350d85a184b4dd",
    "b17": "f314314696921e2d7a75b32009e1645c",
    "b18": "2b35f30aa12ad4bdfc54290d97990a29",
}


@functools.lru_cache(maxsize=None)
def _generated(name: str) -> Circuit:
    """Each pinned circuit is generated once per module."""
    return itc99_like(name, seed=0)


def test_netlist_digests_cover_every_default_profile():
    assert {profile.name for profile in all_profiles()} == set(NETLIST_DIGESTS)


@pytest.mark.parametrize("name", sorted(NETLIST_DIGESTS))
def test_generated_netlists_are_pinned(name):
    assert _generated(name).structure_digest() == NETLIST_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TOPO_ORDER_DIGESTS))
def test_topological_orders_are_pinned(name):
    order = "|".join(_generated(name).topological_order())
    assert blake2b(order.encode(), digest_size=16).hexdigest() == TOPO_ORDER_DIGESTS[name]


def _predicate_logic_gates(circuit: Circuit):
    """The combinational gates, selected through the ``GateType`` predicates."""
    return [
        gate
        for gate in circuit.gates.values()
        if not gate.gate_type.is_sequential and not gate.gate_type.is_source
    ]


@pytest.mark.parametrize("name", default_benchmark_names())
def test_gate_counts_of_default_profiles(name):
    circuit = _generated(name)
    reference = _predicate_logic_gates(circuit)
    assert circuit.combinational_gates == reference
    assert circuit.n_gates == len(reference) == get_profile(name).gates


def test_gate_counts_skip_every_non_logic_type():
    logic = [kind for kind in GateType if not kind.is_sequential and not kind.is_source]
    circuit = Circuit("every_type")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("zero", GateType.CONST0, [])
    circuit.add_gate("one", GateType.CONST1, [])
    circuit.add_gate("src", GateType.INPUT, [])
    circuit.add_gate("q", GateType.DFF, ["d"])
    for kind in logic:
        circuit.add_gate(f"g_{kind.name}", kind, ["a"] if kind.arity_ok(1) else ["a", "q"])
    circuit.add_gate("d", GateType.AND, ["zero", "one", "src", "b"])
    circuit.add_output("d")
    outputs = [gate.output for gate in circuit.combinational_gates]
    assert outputs == [f"g_{kind.name}" for kind in logic] + ["d"]
    assert circuit.combinational_gates == _predicate_logic_gates(circuit)
    assert circuit.n_gates == len(logic) + 1


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


# -- the array passes against the per-gate loops they replaced ----------------

_LOGIC_KINDS = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]
_KINDS = _LOGIC_KINDS + [GateType.CONST0, GateType.CONST1, GateType.DFF]
#: What a column mutation may turn a gate into: INPUT too, which validation rejects.
_MUTATION_KINDS = _KINDS + [GateType.INPUT]


@st.composite
def netlists(draw, faults=False):
    """A random netlist by name: ``(inputs, gates in insertion order, outputs, ghosts)``.

    Combinational gates read inputs, flip-flop outputs (state feedback) and
    gates of lower rank, so the logic is acyclic; fan-ins may repeat a net.
    The gates are added in shuffled order, not rank order, so a gate may be
    read before it is added.  Names are ``w<label>`` over a permutation of
    labels, so they sort unlike any id or insertion order (``w10 < w2``).
    With ``faults``, a gate may also read a gate of equal or higher rank
    (perhaps closing a cycle) or a ghost net nothing drives, and a source
    gate may have type INPUT.
    """
    n_inputs = draw(st.integers(0, 4))
    n_gates = draw(st.integers(1, 24))
    n_ghosts = 2
    labels = draw(st.permutations(range(n_inputs + n_gates + n_ghosts)))
    names = [f"w{label}" for label in labels]
    inputs = names[:n_inputs]
    ranked = names[n_inputs : n_inputs + n_gates]
    ghosts = names[n_inputs + n_gates :]
    kinds = [draw(st.sampled_from(_KINDS)) for _ in ranked]
    flip_flops = [name for name, kind in zip(ranked, kinds) if kind is GateType.DFF]
    gates = []
    for rank, (name, kind) in enumerate(zip(ranked, kinds)):
        pool = inputs + flip_flops + ranked[:rank] if kind is not GateType.DFF else inputs + ranked
        if faults and draw(st.integers(0, 5)) == 0:
            pool = pool + ranked[rank:] + ghosts
        if not pool or kind in (GateType.CONST0, GateType.CONST1):
            sources = [GateType.CONST0, GateType.CONST1] + [GateType.INPUT] * faults
            kind = draw(st.sampled_from(sources))
            gates.append((name, kind, ()))
            continue
        arity = 1 if kind in (GateType.NOT, GateType.BUF, GateType.DFF) else draw(st.integers(2, 4))
        gates.append((name, kind, tuple(draw(st.sampled_from(pool)) for _ in range(arity))))
    insertion = draw(st.permutations(range(n_gates)))
    gates = [gates[index] for index in insertion]
    outputs = draw(st.lists(st.sampled_from(inputs + ranked), unique=True, max_size=4))
    return inputs, gates, outputs, ghosts


def _add_gate_by_gate(netlist):
    inputs, gates, outputs, _ = netlist
    circuit = Circuit("fuzz")
    for name in inputs:
        circuit.add_input(name)
    for name, kind, fanin in gates:
        circuit.add_gate(name, kind, fanin)
    for name in outputs:
        circuit.add_output(name)
    return circuit


def _columns(netlist, shuffle):
    """``from_columns`` arguments of a netlist, its nets numbered by ``shuffle``."""
    inputs, gates, outputs, ghosts = netlist
    names = inputs + [name for name, _, _ in gates] + ghosts
    shuffle.shuffle(names)
    net_id = {name: index for index, name in enumerate(names)}
    return dict(
        net_names=names,
        inputs=[net_id[name] for name in inputs],
        gate_net=[net_id[name] for name, _, _ in gates],
        gate_type=[kind for _, kind, _ in gates],
        gate_fanin=[tuple(net_id[net] for net in fanin) for _, _, fanin in gates],
        outputs=[net_id[name] for name in outputs],
    )


def _outcome(call):
    """``("ok", result)``, or ``("error", message)`` for a :class:`CircuitError`."""
    try:
        return "ok", call()
    except CircuitError as error:
        return "error", str(error)


def _reference_order(circuit):
    names, gate_net = circuit._net_names, circuit._gate_net
    return [names[gate_net[index]] for index in reference_topological_gates(circuit)]


@settings(max_examples=300, deadline=None)
@given(netlist=netlists(faults=True), seed=st.integers(0, 2**16))
def test_topological_order_matches_the_fifo_queue(netlist, seed):
    circuit = _add_gate_by_gate(netlist)
    # Before validation, Kahn's own checks: undriven reads by logic gates, cycles.
    order = _outcome(circuit.topological_order)
    assert order == _outcome(lambda: _reference_order(circuit))
    assert _outcome(circuit.validate) == _outcome(lambda: reference_validate(circuit))

    columns = _columns(netlist, random.Random(seed))
    built = _outcome(lambda: Circuit.from_columns("fuzz", **columns))
    reference = _outcome(lambda: reference_from_columns("fuzz", **columns))
    assert built[0] == reference[0]
    if built[0] == "error":
        assert built == reference
        return
    bulk = built[1]
    assert bulk.topological_order() == _reference_order(bulk)
    assert bulk.topological_order() == _reference_order(reference[1])
    if order[0] == "ok":
        assert bulk.topological_order() == order[1]


_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["drive", "kind", "read", "input", "output"]),
        st.integers(0, 2**16),
        st.integers(-1, 2**16),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(netlist=netlists(), seed=st.integers(0, 2**16), mutations=_MUTATIONS)
def test_from_columns_reports_what_the_loops_report(netlist, seed, mutations):
    # Break a valid netlist's columns in one to three places, anywhere.
    columns = _columns(netlist, random.Random(seed))
    n_ids = len(columns["net_names"])
    for what, at, value in mutations:
        net = value % (n_ids + 1) if value >= 0 else value
        if what == "drive":
            columns["gate_net"][at % len(columns["gate_net"])] = net
        elif what == "kind":
            kind = _MUTATION_KINDS[value % len(_MUTATION_KINDS)]
            columns["gate_type"][at % len(columns["gate_type"])] = kind
        elif what == "read":
            index = at % len(columns["gate_fanin"])
            columns["gate_fanin"][index] = columns["gate_fanin"][index][:2] + (net,)
        else:
            ids = columns[what + "s"]
            ids.insert(at % (len(ids) + 1), ids[value % len(ids)] if ids else net)
    built = _outcome(lambda: Circuit.from_columns("fuzz", **columns))
    reference = _outcome(lambda: reference_from_columns("fuzz", **columns))
    assert built[0] == reference[0]
    if built[0] == "error":
        assert built[1] == reference[1]
    else:
        assert built[1].topological_order() == _reference_order(reference[1])


def _assert_node_blocks(program):
    """``node_block`` joined over several block sizes is the reference tuple list.

    ``program`` is fresh, so ``node_prog`` is built here, from one block.
    """
    expected = reference_node_prog(program)
    assert "node_prog" not in program.__dict__
    for block in (1, 7, _NODE_BLOCK):
        joined = []
        for lo in range(0, program.n_nodes, block):
            joined += program.node_block(lo, min(lo + block, program.n_nodes))
        assert joined == expected, block
    assert program.node_prog == expected


def _assert_program_parity(circuit):
    """The compiler, release schedule and capacitance rows against their loops."""
    program = compile_circuit(circuit)
    reference = reference_compile_columns(circuit)
    assert program.node_prog == reference.node_prog
    assert program.net_names == reference.net_names
    for name in ("output_rows", "last_reader", "ops", "fanin_rows", "node_offsets"):
        actual, expected = getattr(program, name), getattr(reference, name)
        assert actual.dtype == expected.dtype, name
        assert actual.dtype == (np.int8 if name == "ops" else np.int32), name
        assert np.array_equal(actual, expected), name
    _assert_node_blocks(compile_circuit(circuit))
    for block in (1, 3, 512):
        for actual, expected in zip(
            release_schedule(program, block), reference_release_schedule(reference, block)
        ):
            assert actual.dtype == expected.dtype and np.array_equal(actual, expected)
    technology = TechnologyParameters(wire_variation=0.2)
    for seed in (0, 5):
        expected = reference_row_capacitances(circuit, technology, seed)
        assert row_capacitances(circuit, technology, seed).tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(netlist=netlists(), seed=st.integers(0, 2**16))
def test_program_matches_the_loops_on_random_netlists(netlist, seed):
    # INPUT-type gates have no opcode, and the generator draws none.
    circuit = Circuit.from_columns("fuzz", **_columns(netlist, random.Random(seed)))
    _assert_program_parity(circuit)
    _assert_program_parity(_add_gate_by_gate(netlist))


@pytest.mark.parametrize("name", default_benchmark_names())
def test_program_matches_the_loops_on_default_profiles(name):
    _assert_program_parity(_generated(name))


def _workload_circuit(name: str, seed: int) -> Circuit:
    """``itc99_like`` at the scale ``build_workload`` uses without full scale."""
    gates = get_profile(name).gates
    scale = SCALED_GATE_TARGET / gates if gates > SCALED_GATE_TARGET else None
    return itc99_like(name, scale=scale, seed=seed)


def _digest(text: str) -> str:
    return blake2b(text.encode(), digest_size=16).hexdigest()


#: ``(name, seed) -> (digest of topological_order(), digest of node_prog)``,
#: blake2b-16 of ``"|".join(order)`` and of ``repr(node_prog)``, for every
#: profile at its workload scale and, as ``"b17-full"``, full-scale b17.
#: Recorded before the sort and the compiler became array passes.
ORDER_AND_PROGRAM_DIGESTS = {
    ("b01", 0): ("a4b6f217c9aa81a8def5c47ca727dbad", "ea8b3317170e9161c3c6c75985ce4bc7"),
    ("b01", 1): ("53fd2193c956f4c7b896b2868ec8c5a7", "bf971d04e0c72fbd9a664ead09fbf84a"),
    ("b02", 0): ("5677fed32e6550b8fc42446902b02000", "6ea2880425aaa32aa095083759e650e9"),
    ("b02", 1): ("0270fc1d378c1c16a5c80ddc338f7338", "f7b2ebc4c8a232bc733a233ee0a5fcb3"),
    ("b03", 0): ("c5ca33e5811d7d8937e9cd48e4d1bef5", "5ea877925a31da4f0bf822757c72e4e2"),
    ("b03", 1): ("51c95b0c0b18d909524f76de79c6e913", "69c2eca4ad209f39ec64e8ba088f7a24"),
    ("b04", 0): ("b47009de9d7091278f2d225242ab180e", "20200a03e377c924a6188214df813447"),
    ("b04", 1): ("0094363d3cb38bb179d84e4dc6a5bea3", "0ca4b12f8671cb13171fd4f85896cd6b"),
    ("b05", 0): ("012fbdacb0893459e7d5afff9dd55f9a", "3c185196f2d7a311328d24ceb74fe383"),
    ("b05", 1): ("848573806a1cd49d565f398c264a2389", "f22f283b2be8f686311992b7917eb3bc"),
    ("b06", 0): ("ca2840a301f9fe655b3fa7725b263660", "f9de1744e011d3f9af1fdf3ac03c0d4e"),
    ("b06", 1): ("545f819142d941ba67ab48d661ac077b", "3b040cd04c8d71c66190e2d768532927"),
    ("b07", 0): ("49ee66931685252403e403180a0736bb", "20807775e65f602cdf7a3d1fa72fef31"),
    ("b07", 1): ("a4cfa4084c6dd2710e6563f5603ed037", "ae16e0b21d325f5dc6942859d9c72a20"),
    ("b08", 0): ("27dc617a19f149ca8ed105e7803e0d1f", "9633af10b83306e6a29cffaec2e7802d"),
    ("b08", 1): ("9bdea013c21e6901ed5c69d1879edddd", "f232ccbda2a50e51bb2b693e7a0e1d84"),
    ("b09", 0): ("c8c8ea45698f9802a90f1bfb78e52e80", "c5c77e710bb90b9bfffc4f36aa1721b2"),
    ("b09", 1): ("584c2d7e60e4442aecf9b963e5d3a3ee", "f836ee17d7af9c81b45949e8902029f7"),
    ("b10", 0): ("239fcfc5ee8fd41192efadf54956d47b", "57c153748a9c16e71af22d59066127b7"),
    ("b10", 1): ("2eb2a6519131d301625e2060f2da786f", "a111d711675158404b4d3e881f5ee8e2"),
    ("b11", 0): ("f9fde807b08e5af99b0843c1db1f48b2", "b1acbdd37def2b95cb2faadd3e6c24d2"),
    ("b11", 1): ("be44c7c0455323f79d4b2811f402485f", "31b1acf536ca493d16e8d542072310f3"),
    ("b12", 0): ("8b2abb45518048f7784e451c1a7714e3", "bad60f304639d07a0c7cda60efad7b9a"),
    ("b12", 1): ("d89c6f1c0ddb2a158c7c7622477dbaed", "a383d7e7da1c878a380294332b82f231"),
    ("b13", 0): ("319f7451fe9015930f8f205a3e7fc72b", "8de8cb6abd61490a66105a8e581d2e68"),
    ("b13", 1): ("388cc845482d178ede063db4cdc366d9", "3fec8aa1824e512d50c18117b3050b81"),
    ("b14", 0): ("850ce62580d475f8f27727f358183677", "690e3837d2e329dc5805b00d8e984b68"),
    ("b14", 1): ("7966a931e9dee41d8881d3d3bd790696", "1227d2771392d4ff72822a7d6d3114cd"),
    ("b15", 0): ("41dc64e9d1957f2f822383240d78d487", "f01ad2b52aa206defefc3c818af9b65b"),
    ("b15", 1): ("da8a7409dba96b77f4b298ae7f576a6b", "5c61e4fdecf5608b2488f246f8f4f415"),
    ("b17", 0): ("ccdacf450e8d630c5fe2e50606a6ccec", "0f464306dbee2bea89c636b6cbf5d9d8"),
    ("b17", 1): ("bd5e56a859e3e57cd767a4146a445cfe", "5b1134875b2d1dacc5742f04d87c9030"),
    ("b17-full", 0): ("f314314696921e2d7a75b32009e1645c", "0fc4095d5ab5fdfae4b94585f6618f5f"),
    ("b18", 0): ("fb50eb54145a32b3aa45665f3f572e25", "61b423ece6b41a43d60dfd1058dd1975"),
    ("b18", 1): ("81b8779fce6a91247f7647b82e114424", "a9047b4b576729d941ea42afe31a84f0"),
    ("b19", 0): ("7bc89bafc875cfb4400ed8e8a21c87c1", "3780e95ba689b8dfeb8b58f6ac155cb8"),
    ("b19", 1): ("5ccdd30941591840b1983037ac2a5364", "262adc7014f6ba9f5262b9ec64a85b3f"),
    ("b20", 0): ("f36dae6c1dc20f672b1897b033429f21", "f381a7f6e0f306a2a380255b8656dc3e"),
    ("b20", 1): ("da8a7409dba96b77f4b298ae7f576a6b", "5c61e4fdecf5608b2488f246f8f4f415"),
    ("b21", 0): ("3e86dd8f47eb02458fbb707596031e46", "39967ca7aa5f2671c7a4c62d90f824e8"),
    ("b21", 1): ("da8a7409dba96b77f4b298ae7f576a6b", "5c61e4fdecf5608b2488f246f8f4f415"),
    ("b22", 0): ("ebd8e130d8a122b29f72b96865f1742a", "b613a25abf6c29c31928928f0c081761"),
    ("b22", 1): ("ae991e504775842159f671e6c1d77ef0", "e8bc8c07e63c59ab033d1fa48cbf12d0"),
}


def test_order_and_program_digests_cover_every_profile():
    names = {name for name, _ in ORDER_AND_PROGRAM_DIGESTS} - {"b17-full"}
    assert names == {profile.name for profile in all_profiles()}
    assert len(ORDER_AND_PROGRAM_DIGESTS) == 2 * len(names) + 1


@pytest.mark.parametrize(
    "name, seed", sorted(ORDER_AND_PROGRAM_DIGESTS), ids=lambda value: str(value)
)
def test_order_and_program_are_pinned(name, seed):
    circuit = _generated("b17") if name == "b17-full" else _workload_circuit(name, seed)
    observed = (
        _digest("|".join(circuit.topological_order())),
        _digest(repr(compile_circuit(circuit).node_prog)),
    )
    assert observed == ORDER_AND_PROGRAM_DIGESTS[(name, seed)]
