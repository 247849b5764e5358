"""Differential fuzz: every simulator and grading kernel agrees bit for bit.

Random small circuits from :func:`~repro.circuit.generator.generate_circuit`
× random pattern sets whose widths cross the 8-pattern byte, 64-pattern and
128-pattern fault-dropping block seams × random fault subsets (duplicates
and arbitrary order included), with dropping on and off.  The naive
simulators are the reference: the packed logic simulator and every packed
grading mode (``lanes``, ``faults``, ``auto``) must reproduce their values,
detection order, first-detecting indices and undetected lists exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.simulator import LogicSimulator
from repro.cubes.cube import TestSet
from repro.engine import NaiveFaultSimulator, PackedFaultSimulator, PackedLogicSimulator

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
