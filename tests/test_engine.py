"""Tests for the compiled bit-packed simulation engine (``repro.engine``).

The contract under test is *bit-for-bit parity*: on any circuit and any
fully specified pattern set, the packed backend must produce exactly the
same net values, fault-detection maps (including first-detecting pattern
indices) and power figures as the naive reference implementation — across
both packed execution strategies and including pattern counts that are not
a multiple of the 64-bit word size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17
from repro.circuit.simulator import LogicSimulator
from repro.cubes.cube import TestSet
from repro.engine import (
    DROP_BLOCK_PATTERNS,
    FAULT_MODE_ENV_VAR,
    LANE_MODE_MAX_PATTERNS,
    NaiveFaultSimulator,
    PackedFaultSimulator,
    PackedLogicSimulator,
    SimulationBackend,
    available_backends,
    compile_circuit,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_fault_mode,
    set_default_backend,
)
from repro.engine.backend import BACKEND_ENV_VAR, _REGISTRY
from repro.engine.packed import (
    evaluate_words,
    pack_patterns,
    tail_mask,
    unpack_values,
)
from repro.power.estimator import PowerEstimator

def all_gate_types_circuit():
    """A hand-built circuit containing every opcode the engine dispatches.

    The random generator never emits CONST gates and c17 is NAND-only, so
    this is the circuit that catches a divergent opcode among the three
    dispatch sites (``evaluate_lanes``, ``evaluate_words`` and the inline
    cone interpreter in ``PackedFaultSimulator``).
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

#: Pattern counts straddling the 64-bit word boundary (the packed engine's
#: natural edge) plus the single-pattern and multi-word cases.
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
        words = pack_patterns(matrix)
        assert words.dtype == np.uint64 and words.shape == (9, 3)
        assert np.array_equal(unpack_values(words, 130), matrix.T)


class TestLogicParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    @pytest.mark.parametrize("n_patterns", PATTERN_COUNTS)
    @pytest.mark.parametrize("mode", ["lanes", "words"])
    def test_simulate_matches_naive(self, make_circuit, n_patterns, mode):
        circuit = make_circuit()
        patterns = _random_patterns(circuit, n_patterns, seed=n_patterns)
        naive = LogicSimulator(circuit).simulate(patterns)
        packed = PackedLogicSimulator(circuit, mode=mode).simulate(patterns)
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
    """No word-table consumer may ever read the garbage tail of a last word."""

    def test_tail_mask_values(self):
        assert int(tail_mask(1)) == 1
        assert int(tail_mask(63)) == (1 << 63) - 1
        assert int(tail_mask(64)) == (1 << 64) - 1
        assert int(tail_mask(65)) == 1
        assert int(tail_mask(130)) == 3

    @pytest.mark.parametrize("n_patterns", [1, 63, 65, 130])
    def test_evaluate_words_zeroes_tail_bits(self, n_patterns):
        # all_gate_types_circuit is full of inverting ops, which complement
        # all 64 bits of a word — exactly the producers of tail garbage.
        circuit = all_gate_types_circuit()
        matrix = _random_patterns(circuit, n_patterns, seed=3).astype(bool)
        table = evaluate_words(compile_circuit(circuit), pack_patterns(matrix), n_patterns)
        beyond = ~np.uint64(tail_mask(n_patterns))
        assert not np.any(table[:, -1] & beyond)

    def test_unpack_values_masks_unsanitised_tables(self):
        # Even a table that somehow kept its garbage unpacks clean.
        dirty = np.full((3, 2), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        values = unpack_values(dirty, 70)
        assert values.shape == (3, 70)
        assert values.all()
        assert np.array_equal(dirty, np.full((3, 2), np.uint64(0xFFFFFFFFFFFFFFFF)))


class TestFaultModes:
    """Lane- and word-mode grading must be bit-identical on every backend.

    Pattern counts cover the word-boundary edges (1, 63, 64, 65) and a
    multi-word count past the auto-mode crossover (4097), where tail-bit
    handling and the words path actually engage.
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
        for mode in ("lanes", "words", "faults"):
            results[f"packed-{mode}"] = PackedFaultSimulator(circuit, mode=mode).run(
                patterns, faults
            )
        for key, result in results.items():
            assert (
                list(result.detected.items()) == list(reference.detected.items())
            ), (key, n_patterns)
            assert result.undetected == reference.undetected, (key, n_patterns)

    def test_auto_mode_switches_at_lane_threshold(self):
        circuit = c17()
        simulator = PackedFaultSimulator(circuit, mode="auto")
        faults = full_fault_list(circuit)
        narrow = TestSet.from_matrix(_random_patterns(circuit, 70, seed=0))
        simulator.run(narrow, faults)
        assert simulator.last_run_stats["fault_mode"] == "lanes"
        wide = TestSet.from_matrix(
            _random_patterns(circuit, LANE_MODE_MAX_PATTERNS + 1, seed=0)
        )
        simulator.run(wide, faults)
        assert simulator.last_run_stats["fault_mode"] == "words"

    def test_words_mode_drops_across_blocks(self):
        # Word-mode dropping must skip cone work, like the lanes path does.
        circuit = generate_circuit(CircuitSpec("word_drop", 8, 6, 120, seed=1))
        patterns = TestSet.from_matrix(_random_patterns(circuit, 300, seed=1))
        faults = full_fault_list(circuit)
        simulator = PackedFaultSimulator(circuit, mode="words", block_patterns=64)
        result = simulator.run(patterns, faults, drop_detected=True)
        stats = dict(simulator.last_run_stats)
        assert stats["blocks"] > 1
        assert stats["dropped_block_evaluations"] > 0
        reference = PackedFaultSimulator(circuit, mode="lanes").run(patterns, faults)
        assert list(result.detected.items()) == list(reference.detected.items())

    def test_env_var_forces_mode(self, monkeypatch):
        monkeypatch.setenv(FAULT_MODE_ENV_VAR, "words")
        simulator = PackedFaultSimulator(c17())
        assert simulator.mode == "words"
        patterns = TestSet.from_matrix(_random_patterns(c17(), 8, seed=0))
        simulator.run(patterns, full_fault_list(c17())[:2])
        assert simulator.last_run_stats["fault_mode"] == "words"

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_MODE_ENV_VAR, "words")
        assert PackedFaultSimulator(c17(), mode="lanes").mode == "lanes"

    def test_unknown_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown fault mode"):
            PackedFaultSimulator(c17(), mode="simd")
        monkeypatch.setenv(FAULT_MODE_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown fault mode"):
            resolve_fault_mode()


class TestDuplicateFaults:
    """Duplicate faults must collapse to one entry, not skew coverage."""

    @pytest.mark.parametrize("mode", ["lanes", "words", "faults"])
    def test_duplicates_counted_once(self, mode):
        circuit = c17()
        patterns = TestSet.from_matrix(_random_patterns(circuit, 40, seed=5))
        base = full_fault_list(circuit)
        duplicated = base + base[:5] + [base[0]]
        for simulator in (
            NaiveFaultSimulator(circuit),
            PackedFaultSimulator(circuit, mode=mode),
        ):
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
        res_naive = FaultSimulator(circuit, backend="naive").run(patterns, faults)
        res_packed = FaultSimulator(circuit, backend="packed").run(patterns, faults)
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
        for backend in ("naive", "packed"):
            result = FaultSimulator(circuit, backend=backend).run(patterns, [ghost])
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
        # Pin the block size: the packed words mode defaults to much wider
        # blocks, which would fit this whole pattern set into one.
        simulator = simulator_cls(circuit, block_patterns=DROP_BLOCK_PATTERNS)
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
        naive = PowerEstimator(circuit, backend="naive").estimate(patterns)
        packed = PowerEstimator(circuit, backend="packed").estimate(patterns)
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
    def test_builtin_backends_registered(self):
        assert {"naive", "packed"} <= set(available_backends())

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("no_such_backend")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "naive")
        assert default_backend_name() == "naive"
        assert get_backend().name == "naive"

    def test_set_default_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "naive")
        set_default_backend("packed")
        try:
            assert default_backend_name() == "packed"
        finally:
            set_default_backend(None)
        assert default_backend_name() == "naive"

    def test_register_custom_backend(self):
        class DummyBackend(SimulationBackend):
            name = "dummy_for_test"

            def logic_simulator(self, circuit):
                return LogicSimulator(circuit)

            def fault_simulator(self, circuit):
                return NaiveFaultSimulator(circuit)

        backend = DummyBackend()
        register_backend(backend)
        try:
            assert get_backend("dummy_for_test") is backend
            with pytest.raises(ValueError, match="already registered"):
                register_backend(DummyBackend())
            simulator = FaultSimulator(c17(), backend="dummy_for_test")
            assert isinstance(simulator._impl, NaiveFaultSimulator)
        finally:
            _REGISTRY.pop("dummy_for_test", None)

    def test_backend_instance_passthrough(self):
        backend = get_backend("naive")
        assert get_backend(backend) is backend

    def test_packed_backend_compiles_once_per_circuit(self):
        circuit = c17()
        backend = get_backend("packed")
        first = backend.fault_simulator(circuit)
        second = backend.logic_simulator(circuit)
        assert first.program is second.program

    def test_packed_program_cache_invalidated_on_mutation(self):
        from repro.circuit.gates import GateType

        circuit = generate_circuit(CircuitSpec("mutant", 4, 0, 20, seed=0))
        backend = get_backend("packed")
        before = backend.fault_simulator(circuit).program
        circuit.add_gate("late_gate", GateType.NOT, [circuit.primary_inputs[0]])
        circuit.add_output("late_gate")
        after = backend.fault_simulator(circuit).program
        assert after is not before
        assert "late_gate" in after.net_index
        # The recompiled program simulates the mutated netlist correctly.
        patterns = _random_patterns(circuit, 65, seed=0)
        naive = LogicSimulator(circuit).simulate(patterns)
        packed = backend.logic_simulator(circuit).simulate(patterns)
        for net in naive:
            assert np.array_equal(naive[net], packed[net]), net
