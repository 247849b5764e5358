"""Differential fuzz: every simulator and grading kernel agrees bit for bit.

Random small circuits from :func:`~repro.circuit.generator.generate_circuit`
× random pattern sets whose widths cross the 8-pattern byte, 64-pattern and
128-pattern fault-dropping block seams × random fault subsets (duplicates
and arbitrary order included), with dropping on and off.  The naive
simulators of ``tests/reference_engines.py`` are the reference: the packed
logic simulator and the fault simulator on each grading kernel (``lanes``,
``faults``, and the one the run's shape picks) must reproduce their values,
detection order, first-detecting indices and undetected lists exactly.

The packed grading kernels must also agree on their work counters: the
fault-parallel ``faults`` kernel evaluates exactly as many cones as the
``lanes`` kernel, and no kernel reports a negative dropped count.

The circuit build and power layers are checked against the exact references
in ``tests/helpers.py``: the topological order against the name-keyed Kahn,
the compiled program field for field, the capacitance extraction net for
net, and the blocked switching kernel against the dense toggle table, fed
the packed flips of both simulators (the packed shift-xor and ``np.packbits``
of the naive value table) with the rows shuffled and the block height forced
to 1 and 7 so every block seam is crossed.  ``PowerEstimator.estimate_many``, which streams several
sets side by side through one pass, must grade each set exactly as the
dense reference of that set alone, with the node-block and product-row
sizes forced small.  The
columnar netlist is checked against itself across construction paths: a
bulk-built circuit (generator or :meth:`Circuit.from_columns`), a
gate-by-gate ``add_gate`` rebuild and a ``.bench`` round trip must agree on
every derived view, although they number their nets differently.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import full_fault_list
from repro.circuit.bench_format import parse_bench, write_bench
from repro.circuit.gates import GateType
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17, ripple_counter
from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.engine import PackedFaultSimulator, PackedLogicSimulator, packed
from repro.engine.compile import compile_circuit
from repro.engine.packed import boundary_flips, lanes_to_bytes, pack_lanes
from repro.power import switching
from repro.power.capacitance import TechnologyParameters, extract_capacitances, row_capacitances
from repro.power.estimator import PowerEstimator
from tests.helpers import (
    grading_kernel,
    lazy_program_fields,
    reference_capacitances,
    reference_compile_circuit,
    reference_switching,
    reference_topological_order,
)
from tests.reference_engines import (
    LogicSimulator,
    NaiveFaultSimulator,
    naive_power_estimator,
    pack_flips,
)

#: Pattern counts on either side of every packing and blocking seam.
SEAM_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257]

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def specs(draw):
    return CircuitSpec(
        "fuzz",
        n_primary_inputs=draw(st.integers(1, 8)),
        n_flip_flops=draw(st.integers(0, 8)),
        n_gates=draw(st.integers(1, 120)),
        seed=draw(SEEDS),
    )


def circuits():
    return specs().map(generate_circuit)


def _patterns(circuit, n_patterns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)


PATTERN_COUNTS = st.one_of(st.sampled_from(SEAM_WIDTHS), st.integers(1, 260))


@settings(max_examples=200, deadline=None)
@given(circuit=circuits(), n_patterns=PATTERN_COUNTS, seed=SEEDS)
def test_packed_logic_matches_naive(circuit, n_patterns, seed):
    patterns = _patterns(circuit, n_patterns, seed)
    naive = LogicSimulator(circuit).simulate(patterns)
    packed = PackedLogicSimulator(circuit).simulate(patterns)
    assert list(naive) == list(packed)
    for net in naive:
        assert np.array_equal(naive[net], packed[net]), net


@settings(max_examples=150, deadline=None)
@given(
    circuit=circuits(),
    n_patterns=PATTERN_COUNTS,
    seed=SEEDS,
    fault_share=st.floats(0.0, 1.0),
    with_duplicates=st.booleans(),
    drop=st.booleans(),
)
def test_packed_grading_matches_naive(
    circuit, n_patterns, seed, fault_share, with_duplicates, drop
):
    patterns = TestSet.from_matrix(_patterns(circuit, n_patterns, seed))
    every_fault = full_fault_list(circuit)
    rng = np.random.default_rng(seed)
    picks = rng.choice(
        len(every_fault),
        size=int(round(fault_share * len(every_fault))),
        replace=with_duplicates,
    )
    faults = [every_fault[int(i)] for i in picks]
    reference = NaiveFaultSimulator(circuit).run(patterns, faults, drop_detected=drop)
    cones = {}
    for mode in ("lanes", "faults", "auto"):
        simulator = PackedFaultSimulator(circuit)
        with grading_kernel(mode):
            result = simulator.run(patterns, faults, drop_detected=drop)
        assert list(result.detected.items()) == list(reference.detected.items()), mode
        assert result.undetected == reference.undetected, mode
        cones[mode] = simulator.last_run_stats["cone_evaluations"]
        assert simulator.last_run_stats["dropped_block_evaluations"] >= 0, mode
    # One cone evaluation per still-undetected fault per block, in both kernels.
    assert cones["faults"] == cones["lanes"]


#: Block heights of the switching kernel: one row, a prime that leaves a
#: ragged last block, and the shipped height.
BLOCK_ROWS = st.sampled_from([1, 7, switching._BLOCK_ROWS])


def _assert_identical(actual, expected, what):
    assert type(actual) is type(expected), what
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
        assert np.array_equal(actual, expected), what
    else:
        assert actual == expected, what


def _assert_same_program(circuit, reference):
    """Every field of ``compile_circuit(circuit)`` equals ``reference``'s.

    The lazy fields are forced here; the reference holds them precomputed.
    """
    program = compile_circuit(circuit)
    for field in dataclasses.fields(reference):
        _assert_identical(getattr(program, field.name), getattr(reference, field.name), field.name)
    lazy = lazy_program_fields()
    assert set(lazy) == {
        "node_prog", "net_index", "node_levels", "out_node", "reader_lists", "_observable_set"
    }
    for name in lazy:
        assert name not in program.__dict__, name
        _assert_identical(getattr(program, name), reference.__dict__[name], name)
    return program


@settings(max_examples=150, deadline=None)
@given(circuit=circuits())
def test_compile_matches_reference(circuit):
    _assert_same_program(circuit, reference_compile_circuit(circuit))


def _netlist_views(circuit):
    """Every derived view of a circuit, by name (net ids never appear)."""
    observed = circuit.combinational_outputs
    return {
        "primary_inputs": circuit.primary_inputs,
        "primary_outputs": circuit.primary_outputs,
        "nets": circuit.nets(),
        "gates": [(g.output, g.gate_type, g.inputs) for g in circuit.gates.values()],
        "gate_lookup": [circuit.get_gate(net) for net in circuit.gates],
        "flip_flops": circuit.flip_flops,
        "combinational_gates": circuit.combinational_gates,
        "counts": (circuit.n_gates, circuit.n_flip_flops, circuit.n_test_pins),
        "combinational_inputs": circuit.combinational_inputs,
        "combinational_outputs": observed,
        "topological_order": circuit.topological_order(),
        "levelize": list(circuit.levelize().items()),
        "fanout_map": list(circuit.fanout_map().items()),
        "fanout_counts": list(circuit.fanout_counts().items()),
        "transitive_fanin": [circuit.transitive_fanin(net) for net in observed],
        "is_primary_input": [circuit.is_primary_input(net) for net in circuit.nets()],
        "stats": circuit.stats(),
        "structure_digest": circuit.structure_digest(),
    }


def _rebuild_gate_by_gate(circuit):
    rebuilt = Circuit(circuit.name)
    for net in circuit.primary_inputs:
        rebuilt.add_input(net)
    for gate in circuit.gates.values():
        rebuilt.add_gate(gate.output, gate.gate_type, gate.inputs)
    for net in circuit.primary_outputs:
        rebuilt.add_output(net)
    rebuilt.validate()
    return rebuilt


def _rebuild_in_bulk(circuit):
    # Number the nets backwards, so no id agrees with the source circuit's.
    names = circuit.nets()[::-1]
    net_id = {net: i for i, net in enumerate(names)}
    gates = list(circuit.gates.values())
    return Circuit.from_columns(
        circuit.name,
        names,
        inputs=[net_id[net] for net in circuit.primary_inputs],
        gate_net=[net_id[g.output] for g in gates],
        gate_type=[g.gate_type for g in gates],
        gate_fanin=[tuple(net_id[net] for net in g.inputs) for g in gates],
        outputs=[net_id[net] for net in circuit.primary_outputs],
    )


def _assert_construction_paths_agree(circuit):
    reference = reference_compile_circuit(circuit)
    assert circuit.topological_order() == reference_topological_order(circuit)
    views = _netlist_views(circuit)
    for rebuilt in (
        _rebuild_gate_by_gate(circuit),
        _rebuild_in_bulk(circuit),
        parse_bench(write_bench(circuit), name=circuit.name),
    ):
        assert _netlist_views(rebuilt) == views
        _assert_same_program(rebuilt, reference)
    _assert_same_program(circuit, reference)


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_construction_paths_agree_on_generated_circuits(spec):
    _assert_construction_paths_agree(generate_circuit(spec))


@pytest.mark.parametrize("build", [c17, b01_like_fsm, ripple_counter])
def test_construction_paths_agree_on_library_circuits(build):
    # b01_like_fsm and ripple_counter read flip-flop outputs before adding
    # the flip-flops: the gate-by-gate path must number those nets on first
    # mention and still agree with the bulk path.
    _assert_construction_paths_agree(build())


def test_compile_matches_reference_with_constants():
    # The generator emits no constant gates: a source-less node sits at
    # level 1, and a gate reading a flip-flop output starts from level 0.
    circuit = Circuit("consts")
    for name in ("a", "b"):
        circuit.add_input(name)
    circuit.add_gate("one", GateType.CONST1, [])
    circuit.add_gate("zero", GateType.CONST0, [])
    circuit.add_gate("n", GateType.NAND, ["a", "one"])
    circuit.add_gate("x", GateType.XOR, ["n", "zero", "q"])
    circuit.add_gate("q", GateType.DFF, ["x"])
    circuit.add_gate("y", GateType.AND, ["q", "b"])
    circuit.add_output("x")
    circuit.add_output("y")
    program = _assert_same_program(circuit, reference_compile_circuit(circuit))
    levels = {
        program.net_names[out]: level
        for (_, out, _), level in zip(program.node_prog, program.node_levels)
    }
    assert levels == {"one": 1, "zero": 1, "n": 2, "x": 3, "y": 1}


@settings(max_examples=150, deadline=None)
@given(
    circuit=circuits(),
    seed=SEEDS,
    wire_variation=st.floats(0.0, 0.99),
    caps=st.tuples(*[st.floats(0.01, 50.0)] * 3),
)
def test_capacitances_match_reference(circuit, seed, wire_variation, caps):
    technology = TechnologyParameters(*caps, wire_variation=wire_variation)
    model = extract_capacitances(circuit, technology, seed=seed)
    reference = reference_capacitances(circuit, technology, seed)
    assert list(model.net_capacitance_ff) == list(reference)
    for net, value in reference.items():
        _assert_identical(model.net_capacitance_ff[net], value, net)


@settings(max_examples=100, deadline=None)
@given(circuit=circuits(), seed=SEEDS)
def test_row_capacitances_match_reference(circuit, seed):
    reference = reference_capacitances(circuit, TechnologyParameters(), seed)
    rows = circuit.combinational_inputs + circuit.topological_order()
    expected = np.array([reference[net] for net in rows], dtype=np.float64)
    assert row_capacitances(circuit, seed=seed).tobytes() == expected.tobytes()


#: Pattern counts of the switching kernel: no boundary, one, two, and both
#: sides of the byte seams of the packed flips.
KERNEL_WIDTHS = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65]


@st.composite
def value_tables(draw):
    """Bool value tables with some (or every) row held constant."""
    n_rows = draw(st.integers(0, 1200))
    n_patterns = draw(st.one_of(st.sampled_from(KERNEL_WIDTHS), st.integers(0, 40)))
    rng = np.random.default_rng(draw(SEEDS))
    values = rng.random((n_rows, n_patterns)) < rng.random()
    constant = rng.random(n_rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[constant] = rng.random((int(constant.sum()), 1)) < 0.5
    # Multiples of 2**-24 fF below 10 fF, like extracted capacitances.
    return values, np.round(rng.random(n_rows) * 10.0 * 2**24) / 2**24


@settings(max_examples=200, deadline=None)
@given(table=value_tables(), block=BLOCK_ROWS, order_seed=SEEDS)
def test_switching_profile_matches_dense(table, block, order_seed):
    """The fold over the rows shuffled, fed in ragged calls and unpacked in
    blocks of any height, equals the dense ``caps @ T`` byte for byte."""
    values, caps = table
    n_rows, n_patterns = values.shape
    n_boundaries = max(n_patterns - 1, 0)
    toggles, switched = reference_switching(values, caps)
    naive_flips = pack_flips(values)
    packed_flips = boundary_flips(lanes_to_bytes(pack_lanes(values.T), n_patterns), n_patterns)
    _assert_identical(packed_flips, naive_flips, "packed flips")
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(n_rows)
    cuts = [0, *np.sort(rng.integers(0, n_rows + 1, size=3)).tolist(), n_rows]
    with mock.patch.object(switching, "_BLOCK_ROWS", block):
        for flips in (naive_flips, packed_flips):
            fold = switching.SwitchingFold(n_boundaries, caps[order])
            for lo, hi in zip(cuts, cuts[1:]):
                fold(lo, flips[order[lo:hi]])
            _assert_identical(fold.toggles, toggles, "toggles")
            _assert_identical(fold.switched, switched, "switched")
            assert fold.switched.tobytes() == switched.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    circuit=circuits(),
    n_patterns=st.one_of(st.sampled_from([2, 3] + SEAM_WIDTHS), st.integers(1, 260)),
    seed=SEEDS,
    block=BLOCK_ROWS,
)
def test_power_and_scan_toggles_match_dense(circuit, n_patterns, seed, block):
    """Both power estimators' capture-cycle activity (per-boundary toggles
    and switched capacitance of the scan test) equals the dense reference."""
    patterns = TestSet.from_matrix(_patterns(circuit, n_patterns, seed))
    nets, values = LogicSimulator(circuit).net_value_matrix(patterns.matrix)
    caps = reference_capacitances(circuit, TechnologyParameters(), seed % 7)
    toggles, switched = reference_switching(values, np.array([caps[n] for n in nets]))
    with mock.patch.object(switching, "_BLOCK_ROWS", block):
        for engine, make in (("naive", naive_power_estimator), ("packed", PowerEstimator)):
            estimator = make(circuit, seed=seed % 7)
            for __ in range(2):  # the second estimate reuses the resolved caps
                activity = estimator.estimate(patterns).activity
                _assert_identical(activity.toggles_per_boundary, toggles, engine)
                _assert_identical(activity.switched_capacitance_ff, switched, engine)


#: Node-block and product-row sizes of the streamed fold: one, a ragged
#: prime, and wider than most fuzz circuits.
STREAM_BLOCKS = st.sampled_from([1, 3, 64])


def _held_patterns(circuit, n_patterns: int, rng) -> np.ndarray:
    """Patterns flipping each pin with a per-set rate (0: the set is constant),
    so a net can toggle in one set of a batch and not in the next."""
    rate = rng.choice([0.0, 0.02, 0.5])
    steps = rng.random((n_patterns, circuit.n_test_pins)) < rate
    steps[:1] = rng.random((min(n_patterns, 1), circuit.n_test_pins)) < 0.5
    return (np.cumsum(steps, axis=0) % 2).astype(np.int8)


@settings(max_examples=100, deadline=None)
@given(
    circuit=circuits(),
    lengths=st.lists(
        st.one_of(st.sampled_from([0, 1, 2, 3] + SEAM_WIDTHS), st.integers(4, 260)),
        min_size=1,
        max_size=6,
    ),
    seed=SEEDS,
    node_block=STREAM_BLOCKS,
    product_rows=STREAM_BLOCKS,
)
def test_batched_power_matches_each_set_alone(circuit, lengths, seed, node_block, product_rows):
    """``estimate_many`` grades its sets side by side in one streamed pass;
    every report must equal the dense reference of its own set alone, so a
    counted seam column, a lane released before its last reader or a lost
    running total shows."""
    rng = np.random.default_rng(seed)
    sets = [TestSet.from_matrix(_held_patterns(circuit, n, rng)) for n in lengths]
    caps = reference_capacitances(circuit, TechnologyParameters(), seed % 7)
    references = []
    for patterns in sets:
        nets, values = LogicSimulator(circuit).net_value_matrix(patterns.matrix)
        references.append(reference_switching(values, np.array([caps[n] for n in nets])))
    with mock.patch.object(packed, "_NODE_BLOCK", node_block), mock.patch.object(
        switching, "_BLOCK_ROWS", product_rows
    ):
        for engine, make in (("naive", naive_power_estimator), ("packed", PowerEstimator)):
            reports = make(circuit, seed=seed % 7).estimate_many(sets)
            assert len(reports) == len(sets)
            for patterns, report, (toggles, switched) in zip(sets, reports, references):
                activity = report.activity
                _assert_identical(activity.toggles_per_boundary, toggles, engine)
                _assert_identical(activity.switched_capacitance_ff, switched, engine)
                assert activity.switched_capacitance_ff.tobytes() == switched.tobytes(), engine
                matrix = patterns.matrix
                pins = np.count_nonzero(matrix[1:] != matrix[:-1], axis=1).astype(np.int64)
                _assert_identical(activity.input_toggles_per_boundary, pins, engine)
