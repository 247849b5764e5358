"""Differential fuzz: every simulator and grading kernel agrees bit for bit.

Random small circuits from :func:`~repro.circuit.generator.generate_circuit`
× random pattern sets whose widths cross the 8-pattern byte, 64-pattern and
128-pattern fault-dropping block seams × random fault subsets (duplicates
and arbitrary order included), with dropping on and off.  The naive
simulators are the reference: the packed logic simulator and every packed
grading mode (``lanes``, ``faults``, ``auto``) must reproduce their values,
detection order, first-detecting indices and undetected lists exactly.

The circuit build and power layers are checked against the exact references
in ``tests/helpers.py``: the compiled program field for field, the
capacitance extraction net for net, and the blocked switching kernel against
the dense toggle table, with the block height forced to 1 and 7 so every
block seam is crossed.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import full_fault_list
from repro.circuit.gates import GateType
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.simulator import LogicSimulator
from repro.cubes.cube import TestSet
from repro.engine import NaiveFaultSimulator, PackedFaultSimulator, PackedLogicSimulator
from repro.engine.compile import compile_circuit
from repro.power import switching
from repro.power.capacitance import TechnologyParameters, extract_capacitances
from repro.power.estimator import PowerEstimator
from repro.scan.application import ScanTestApplication
from tests.helpers import reference_capacitances, reference_compile_circuit, reference_switching

#: Pattern counts on either side of every packing and blocking seam.
SEAM_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257]

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def circuits(draw):
    return generate_circuit(
        CircuitSpec(
            "fuzz",
            n_primary_inputs=draw(st.integers(1, 8)),
            n_flip_flops=draw(st.integers(0, 8)),
            n_gates=draw(st.integers(1, 120)),
            seed=draw(SEEDS),
        )
    )


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
    for mode in ("lanes", "faults", "auto"):
        result = PackedFaultSimulator(circuit, mode=mode).run(
            patterns, faults, drop_detected=drop
        )
        assert list(result.detected.items()) == list(reference.detected.items()), mode
        assert result.undetected == reference.undetected, mode


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


@settings(max_examples=150, deadline=None)
@given(circuit=circuits())
def test_compile_matches_reference(circuit):
    program = compile_circuit(circuit)
    reference = reference_compile_circuit(circuit)
    for field in dataclasses.fields(reference):
        _assert_identical(getattr(program, field.name), getattr(reference, field.name), field.name)


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
    program = compile_circuit(circuit)
    reference = reference_compile_circuit(circuit)
    for field in dataclasses.fields(reference):
        _assert_identical(getattr(program, field.name), getattr(reference, field.name), field.name)
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


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(0, 1200),
    n_patterns=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 40)),
    seed=SEEDS,
    block=BLOCK_ROWS,
)
def test_switching_profile_matches_dense(n_rows, n_patterns, seed, block):
    rng = np.random.default_rng(seed)
    values = rng.random((n_rows, n_patterns)) < rng.random()
    caps = rng.random(n_rows) * 10.0
    toggles, switched = reference_switching(values, caps)
    with mock.patch.object(switching, "_BLOCK_ROWS", block):
        got_toggles, got_switched = switching.switching_profile(values, caps)
        only_toggles, none = switching.switching_profile(values)
    _assert_identical(got_toggles, toggles, "toggles")
    _assert_identical(got_switched, switched, "switched")
    _assert_identical(only_toggles, toggles, "toggles without caps")
    assert none is None


@settings(max_examples=100, deadline=None)
@given(
    circuit=circuits(),
    n_patterns=st.one_of(st.sampled_from([2, 3] + SEAM_WIDTHS), st.integers(1, 260)),
    seed=SEEDS,
    block=BLOCK_ROWS,
)
def test_power_and_scan_toggles_match_dense(circuit, n_patterns, seed, block):
    patterns = TestSet.from_matrix(_patterns(circuit, n_patterns, seed))
    nets, values = LogicSimulator(circuit).net_value_matrix(patterns.matrix)
    caps = reference_capacitances(circuit, TechnologyParameters(), seed % 7)
    toggles, switched = reference_switching(values, np.array([caps[n] for n in nets]))
    with mock.patch.object(switching, "_BLOCK_ROWS", block):
        for backend in ("naive", "packed"):
            estimator = PowerEstimator(circuit, seed=seed % 7, backend=backend)
            for __ in range(2):  # the second estimate reuses the resolved caps
                activity = estimator.estimate(patterns).activity
                _assert_identical(activity.toggles_per_boundary, toggles, backend)
                _assert_identical(activity.switched_capacitance_ff, switched, backend)
        trace = ScanTestApplication(circuit).apply(patterns, simulate_circuit=True)
    assert [cycle.circuit_toggles for cycle in trace.capture_cycles] == toggles.tolist()
