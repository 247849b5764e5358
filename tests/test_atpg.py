"""Unit and integration tests for the ATPG substrate (faults, PODEM, fault sim)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults, collapse_ratio
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.atpg.podem import PodemEngine
from repro.atpg.tpg import generate_test_cubes
from repro.benchmarks_data.profiles import get_profile
from repro.circuit.gates import GateType
from repro.circuit.library import b01_like_fsm, c17, itc99_like, ripple_counter
from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, ZERO
from repro.cubes.cube import TestSet
from repro.experiments.workloads import (
    ATPG_BACKTRACK_LIMIT,
    ATPG_GATE_LIMIT,
    ATPG_MAX_FAULTS,
    default_workload_names,
)
from repro.obs import recorder as obs


class TestFaultModel:
    def test_fault_naming_and_activation(self):
        fault = StuckAtFault("G10", 0)
        assert fault.name == "G10/sa0"
        assert fault.activation_value == 1

    def test_invalid_stuck_value(self):
        with pytest.raises(ValueError):
            StuckAtFault("G10", 2)

    def test_full_fault_list_size(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        # 5 PIs + 6 gate outputs, two faults each.
        assert len(faults) == 22

    def test_full_fault_list_covers_ff_outputs(self):
        circuit = ripple_counter(2)
        nets = {fault.net for fault in full_fault_list(circuit)}
        assert "q0" in nets and "q1" in nets


class TestCollapsing:
    def test_collapsing_reduces_fault_count(self):
        circuit = c17()
        assert len(collapse_faults(circuit)) < len(full_fault_list(circuit))
        assert 0.0 < collapse_ratio(circuit) < 1.0

    def test_collapsing_is_deterministic(self):
        circuit = b01_like_fsm()
        assert collapse_faults(circuit) == collapse_faults(circuit)

    def test_fanout_stems_not_collapsed(self):
        # G11 in c17 fans out to two gates; its faults must survive as their
        # own representatives rather than being merged through one branch.
        circuit = c17()
        collapsed_nets = {(f.net, f.stuck_value) for f in collapse_faults(circuit)}
        assert ("G11", ZERO) in collapsed_nets or ("G11", ONE) in collapsed_nets

    def test_not_gate_equivalence(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.add_output("y")
        collapsed = collapse_faults(circuit)
        # a/sa0 == y/sa1 and a/sa1 == y/sa0: only two classes remain.
        assert len(collapsed) == 2


class TestFaultSimulator:
    def test_detects_obvious_fault(self):
        circuit = c17()
        simulator = FaultSimulator(circuit)
        # Pattern 10100 sets G1=1, G3=1 so G10=0; G10/sa1 flips G10 and is
        # observable at G22 given the rest of the pattern.
        pattern = np.array([1, 0, 1, 0, 0], dtype=np.int8)
        good = simulator.run(TestSet.from_matrix(pattern.reshape(1, -1)), full_fault_list(circuit))
        assert good.detected_count > 0

    def test_undetectable_without_patterns(self):
        circuit = c17()
        simulator = FaultSimulator(circuit)
        result = simulator.run(TestSet([]), full_fault_list(circuit))
        assert result.detected_count == 0
        assert result.coverage == 0.0

    def test_rejects_partially_specified_patterns(self):
        circuit = c17()
        simulator = FaultSimulator(circuit)
        with pytest.raises(ValueError):
            simulator.run(TestSet.from_strings(["0XXXX"]), full_fault_list(circuit))

    def test_random_patterns_reach_high_coverage_on_c17(self):
        circuit = c17()
        simulator = FaultSimulator(circuit)
        patterns = TestSet.from_matrix(
            np.random.default_rng(0).integers(0, 2, size=(32, 5)).astype(np.int8)
        )
        result = simulator.run(patterns, collapse_faults(circuit))
        assert result.coverage == 1.0  # c17 is fully testable and tiny

    def test_detection_records_first_pattern(self):
        circuit = c17()
        simulator = FaultSimulator(circuit)
        patterns = TestSet.from_matrix(
            np.vstack([np.zeros(5, dtype=np.int8), np.ones(5, dtype=np.int8)])
        )
        result = simulator.run(patterns, full_fault_list(circuit))
        assert all(0 <= index <= 1 for index in result.detected.values())


class TestPodem:
    def test_generates_valid_cube_for_every_c17_fault(self):
        circuit = c17()
        engine = PodemEngine(circuit)
        simulator = FaultSimulator(circuit)
        for fault in collapse_faults(circuit):
            result = engine.generate(fault)
            assert result.detected, f"{fault} should be testable on c17"
            # The cube, with X bits filled pessimistically both ways, must
            # still detect the fault (X positions are genuinely free).
            for fill in (ZERO, ONE):
                bits = result.cube.filled_with(fill).bits
                assert simulator.detects(bits, fault), (fault, fill)

    def test_cubes_contain_dont_cares(self):
        circuit = b01_like_fsm()
        engine = PodemEngine(circuit)
        x_counts = []
        for fault in collapse_faults(circuit)[:10]:
            result = engine.generate(fault)
            if result.detected:
                x_counts.append(result.cube.x_count)
        assert x_counts and max(x_counts) > 0

    def test_untestable_fault_reported(self):
        # y = OR(a, NOT(a)) is constant 1: y/sa1 is undetectable.
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_gate("y", GateType.OR, ["a", "na"])
        circuit.add_output("y")
        engine = PodemEngine(circuit)
        result = engine.generate(StuckAtFault("y", ONE))
        assert result.status == "untestable"

    def test_detectable_fault_on_redundant_circuit_still_found(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_gate("y", GateType.OR, ["a", "na"])
        circuit.add_output("y")
        engine = PodemEngine(circuit)
        result = engine.generate(StuckAtFault("y", ZERO))
        assert result.detected


class TestGenerateTestCubes:
    def test_full_flow_on_c17(self):
        result = generate_test_cubes(c17())
        assert result.fault_coverage == 1.0
        assert len(result.cubes) >= 1
        assert result.cubes.n_pins == 5

    def test_flow_on_sequential_circuit(self):
        circuit = b01_like_fsm()
        result = generate_test_cubes(circuit, seed=1)
        assert result.fault_coverage > 0.9
        assert result.cubes.n_pins == circuit.n_test_pins
        assert 0.0 < result.x_percent < 100.0

    def test_max_patterns_cap(self):
        result = generate_test_cubes(b01_like_fsm(), max_patterns=3)
        assert len(result.cubes) <= 3

    def test_max_faults_cap(self):
        result = generate_test_cubes(b01_like_fsm(), max_faults=6)
        assert result.total_faults == 6

    def test_dropping_reduces_pattern_count(self):
        circuit = b01_like_fsm()
        with_drop = generate_test_cubes(circuit, drop_with_fault_sim=True)
        without_drop = generate_test_cubes(circuit, drop_with_fault_sim=False)
        assert len(with_drop.cubes) <= len(without_drop.cubes)

    def test_filled_cubes_preserve_target_fault_coverage(self):
        """X-filling only assigns don't-cares, so every fault a cube was
        generated for is still detected after DP-fill (coverage of faults that
        were only caught opportunistically by the random fill used during
        dropping may legitimately shift)."""
        from repro.core.dpfill import dp_fill

        circuit = b01_like_fsm()
        atpg = generate_test_cubes(circuit, seed=3)
        simulator = FaultSimulator(circuit)
        target_names = {name for name in atpg.cubes.names if name}
        target_faults = [f for f in collapse_faults(circuit) if f.name in target_names]
        assert target_faults

        filled = dp_fill(atpg.cubes).filled
        result = simulator.run(filled, target_faults)
        assert result.coverage == 1.0


#: The PODEM flow of every default profile small enough to run it, under the
#: workload knobs, per ``(profile, seed)``: blake2b digest of the cube
#: matrix, then the detected / untestable / aborted fault counts and the
#: total PODEM backtracks and decisions.  A changed entry means a changed
#: search or drop sweep: every PODEM-sourced row of every report moves.
PODEM_FLOW_DIGESTS = {
    ("b02", 0): ("78a1825ad2290b07556b961b259dd6c1", 7, 54, 0, 212, 213),
    ("b01", 0): ("20545cc08291ebf85a32f476366810ad", 50, 55, 0, 407, 425),
    ("b06", 0): ("29f28079eaf45e8b53f6139d3fe970cc", 22, 81, 2, 628, 632),
    ("b10", 0): ("d44e4e4ead888f8439e4ca033b653465", 91, 23, 36, 676, 1304),
    ("b03", 0): ("65d4ac95ff6a3d9d796293bf14a8c89b", 118, 0, 32, 581, 1171),
    ("b09", 0): ("58ed30369ae0b6959a516e1ae9543f9b", 68, 0, 82, 1347, 2236),
    ("b08", 0): ("dc8d53436ea959fc93e61a3843d6eeed", 124, 7, 19, 412, 881),
    ("b02", 1): ("3f7d58718a35c6b7110fba9a6324f6b2", 47, 14, 0, 53, 72),
    ("b01", 1): ("8f447317f92a6ec4fa44ab8fa21e7f43", 73, 36, 0, 161, 187),
    ("b06", 1): ("ad3f0263c06207bafe864ac4eb209879", 68, 33, 11, 436, 469),
    ("b10", 1): ("386afd8ac9050151f85305d71cb1ef12", 116, 4, 30, 548, 1016),
    ("b03", 1): ("19681c05dbf499ffd33531f2face9ae9", 116, 2, 32, 546, 934),
    ("b09", 1): ("26f5c3df1b77df812170886617fa4ec9", 79, 2, 69, 1152, 1858),
    ("b08", 1): ("19aa0f74cc55e26ca234a7ed93af99f2", 82, 29, 39, 791, 1194),
}


class TestPodemFlowDigests:
    """The ATPG flow of the PODEM-sourced workloads, pinned by digest.

    The flow is called directly (no cube cache is read), with the knobs
    ``build_workload`` uses, so the cubes come from the current PODEM
    engine and drop sweep.
    """

    def test_table_covers_every_podem_profile(self):
        podem = [
            name
            for name in default_workload_names(include_large=False)
            if get_profile(name).gates <= ATPG_GATE_LIMIT
        ]
        assert sorted(podem) == sorted({name for name, _ in PODEM_FLOW_DIGESTS})

    @pytest.mark.parametrize(
        "name, seed", sorted(PODEM_FLOW_DIGESTS), ids=lambda v: str(v)
    )
    def test_flow_matches_pinned_digest(self, name, seed):
        circuit = itc99_like(name, seed=seed)
        obs.disable()
        obs.enable()
        try:
            result = generate_test_cubes(
                circuit,
                max_faults=ATPG_MAX_FAULTS,
                backtrack_limit=ATPG_BACKTRACK_LIMIT,
                seed=seed,
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        matrix = np.ascontiguousarray(result.cubes.matrix)
        assert matrix.dtype == np.int8
        observed = (
            hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest(),
            len(result.detected_faults),
            len(result.untestable_faults),
            len(result.aborted_faults),
            counters["podem.backtracks"],
            counters["podem.decisions"],
        )
        assert observed == PODEM_FLOW_DIGESTS[(name, seed)]
