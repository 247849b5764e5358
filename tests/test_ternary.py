"""Parity suite: compiled ternary PODEM vs the dict-walking reference.

The contract mirrors the simulation engines': the compiled implication
engine must be *bit-identical* to the dict reference — same good/faulty
machine states, same D-frontier, same generated cubes, same
detected/untestable/aborted classification and even the same
decision/backtrack counters — on every benchmark profile, every gate type
and every backtrack-limit edge case.  On top of parity, every generated
cube must still detect its target fault under pessimistic X-fill.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.atpg.podem import DictPodemEngine, PodemEngine
from repro.circuit.gates import GateType
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm, c17, ripple_counter
from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, X, ZERO
from repro.engine.backend import get_backend
from repro.engine.ternary import (
    ATPG_MODE_ENV_VAR,
    CODE_BLOCKS,
    CODE_HAS_X,
    CODE_IS_D,
    CompiledTernaryPodem,
    PAIR_AND,
    PAIR_NOT,
    PAIR_OR,
    PAIR_XOR,
    T_ONE,
    T_X,
    T_ZERO,
    bit_of_code,
    code_of_bit,
    resolve_atpg_mode,
)
from repro.experiments.workloads import build_workload, default_workload_names


def _all_gates_circuit() -> Circuit:
    """One gate of every evaluable type, with reconvergence and a DFF."""
    circuit = Circuit("allgates")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add_gate("n_and", GateType.AND, ["a", "b"])
    circuit.add_gate("n_nand", GateType.NAND, ["b", "c"])
    circuit.add_gate("n_or", GateType.OR, ["n_and", "c"])
    circuit.add_gate("n_nor", GateType.NOR, ["n_and", "n_nand"])
    circuit.add_gate("n_xor", GateType.XOR, ["n_or", "n_nor"])
    circuit.add_gate("n_xnor", GateType.XNOR, ["n_xor", "a"])
    circuit.add_gate("n_not", GateType.NOT, ["n_xnor"])
    circuit.add_gate("n_buf", GateType.BUF, ["n_not"])
    circuit.add_gate("k0", GateType.CONST0, [])
    circuit.add_gate("k1", GateType.CONST1, [])
    circuit.add_gate("n_mix", GateType.AND, ["n_buf", "k1", "n_xor"])
    circuit.add_gate("n_mix2", GateType.OR, ["n_mix", "k0"])
    circuit.add_gate("ff", GateType.DFF, ["n_mix2"])
    circuit.add_gate("n_obs", GateType.XOR, ["ff", "n_nor"])
    circuit.add_output("n_obs")
    circuit.add_output("n_mix2")
    circuit.validate()
    return circuit


CIRCUITS = [
    pytest.param(lambda: c17(), id="c17"),
    pytest.param(lambda: b01_like_fsm(), id="b01_fsm"),
    pytest.param(lambda: ripple_counter(3), id="counter3"),
    pytest.param(_all_gates_circuit, id="allgates"),
    pytest.param(
        lambda: generate_circuit(CircuitSpec("rand_small", 8, 10, 150, seed=11)),
        id="rand_small",
    ),
]


def _sample_faults(circuit: Circuit, cap: int):
    faults = collapse_faults(circuit)
    if len(faults) <= cap:
        return faults
    stride = len(faults) / cap
    return [faults[int(i * stride)] for i in range(cap)]


def _assert_same_result(a, b, context):
    assert a.status == b.status, context
    assert a.backtracks == b.backtracks, context
    assert a.decisions == b.decisions, context
    if a.detected:
        assert np.array_equal(np.asarray(a.cube.bits), np.asarray(b.cube.bits)), context
    else:
        assert b.cube is None, context


class TestTernaryCodes:
    def test_code_round_trip(self):
        for bit, code in ((ZERO, T_ZERO), (ONE, T_ONE), (X, T_X)):
            assert code_of_bit(bit) == code
            assert bit_of_code(code) == bit


#: Per-machine two-plane ops on one ternary code each (bit 0 "can be 0",
#: bit 1 "can be 1"), written out as ``repro.engine.ternary`` documents them.
def _and(a, b):
    return (a & b & 2) | ((a | b) & 1)


def _or(a, b):
    return ((a | b) & 2) | (a & b & 1)


def _xor(a, b):
    return T_X if (a == T_X or b == T_X) else 1 + ((a ^ b) >> 1)


def _not(a):
    return ((a & 1) << 1) | (a >> 1)


_MACHINE_CODES = (T_ZERO, T_ONE, T_X)
#: The 9 valid packed codes ``good | faulty << 2``.
_PACKED_CODES = [(g, f, g | f << 2) for g in _MACHINE_CODES for f in _MACHINE_CODES]


class TestPackedCodeTables:
    """Every valid packed code through every table, against the per-machine ops."""

    def test_kleene_ops_on_cube_bits(self):
        # The two-plane ops are Kleene logic on 0/1/X.
        for a in (ZERO, ONE, X):
            for b in (ZERO, ONE, X):
                ca, cb = code_of_bit(a), code_of_bit(b)
                definite = X not in (a, b)
                assert bit_of_code(_and(ca, cb)) == (
                    ZERO if ZERO in (a, b) else (a & b if definite else X)
                )
                assert bit_of_code(_or(ca, cb)) == (
                    ONE if ONE in (a, b) else (a | b if definite else X)
                )
                assert bit_of_code(_xor(ca, cb)) == (a ^ b if definite else X)
            assert bit_of_code(_not(code_of_bit(a))) == (1 - a if a != X else X)

    @pytest.mark.parametrize(
        "table, op", [(PAIR_AND, _and), (PAIR_OR, _or), (PAIR_XOR, _xor)],
        ids=["and", "or", "xor"],
    )
    def test_pair_tables(self, table, op):
        assert len(table) == 256
        for ga, fa, a in _PACKED_CODES:
            for gb, fb, b in _PACKED_CODES:
                assert table[a << 4 | b] == op(ga, gb) | op(fa, fb) << 2, (a, b)

    def test_not_table(self):
        assert len(PAIR_NOT) == 16
        for g, f, code in _PACKED_CODES:
            assert PAIR_NOT[code] == _not(g) | _not(f) << 2, code

    def test_predicate_tables(self):
        for table in (CODE_IS_D, CODE_HAS_X, CODE_BLOCKS):
            assert len(table) == 16
        for g, f, code in _PACKED_CODES:
            is_d = g != T_X and f != T_X and g != f
            has_x = g == T_X or f == T_X
            assert bool(CODE_IS_D[code]) == is_d, code
            assert bool(CODE_HAS_X[code]) == has_x, code
            assert bool(CODE_BLOCKS[code]) == (not has_x and not is_d), code


class TestImplicationParity:
    """The compiled machine states must equal the dict reference's, net by net."""

    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_machines_match_dict_imply(self, make_circuit, rng):
        circuit = make_circuit()
        reference = DictPodemEngine(circuit)
        program = get_backend("packed").compiled_program(circuit)
        engine = CompiledTernaryPodem(program)
        pins = circuit.combinational_inputs
        for fault in _sample_faults(circuit, 10):
            site_row = program.net_index[fault.net]
            engine.reset(site_row, fault.stuck_value)
            # A growing random assignment, applied pin by pin (incremental
            # implication) and once more with retractions mixed in.
            assigned = {}
            for pin in rng.permutation(pins)[: max(1, len(pins) // 2)]:
                value = int(rng.integers(0, 2))
                assigned[str(pin)] = value
                engine.assign(program.net_index[str(pin)], value)
            retract = [pin for pin in assigned][::3]
            for pin in retract:
                assigned.pop(pin)
                engine.assign(program.net_index[pin], None)
            good_ref, faulty_ref = reference._imply(assigned, fault)
            good, faulty = engine.machine_codes()
            for net, row in program.net_index.items():
                assert bit_of_code(good[row]) == good_ref[net], (fault, net)
                assert bit_of_code(faulty[row]) == faulty_ref[net], (fault, net)
            assert engine.detected == reference._detected(good_ref, faulty_ref), fault

    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_d_frontier_and_objective_match(self, make_circuit, rng):
        circuit = make_circuit()
        reference = DictPodemEngine(circuit)
        program = get_backend("packed").compiled_program(circuit)
        engine = CompiledTernaryPodem(program)
        node_prog = program.node_prog
        pins = circuit.combinational_inputs
        for fault in _sample_faults(circuit, 10):
            engine.reset(program.net_index[fault.net], fault.stuck_value)
            assigned = {}
            for pin in rng.permutation(pins)[: max(1, len(pins) // 3)]:
                value = int(rng.integers(0, 2))
                assigned[str(pin)] = value
                engine.assign(program.net_index[str(pin)], value)
            good_ref, faulty_ref = reference._imply(assigned, fault)
            frontier_ref = reference._d_frontier(good_ref, faulty_ref)
            frontier = [
                program.net_names[node_prog[pos][1]] for pos in engine.d_frontier()
            ]
            assert frontier == frontier_ref, fault
            dead = set()  # shared across queries, as choose_objective shares it
            for name in frontier_ref:
                assert engine._x_path_exists(
                    program.net_index[name], dead
                ) == reference._x_path_exists(name, good_ref, faulty_ref), (fault, name)


class TestTrailUndo:
    """Decide / flip / retract through the trail, as ``run()`` does.

    A retraction may undo several decisions at once, and each sequence ends
    by retracting the remaining pins out of order through ``assign``.
    After every step the engine state must equal a fresh ``reset`` plus a
    replay of the live assignment, and the dict reference's full implication.
    """

    @staticmethod
    def _check(engine, replay, reference, program, fault, stack):
        replay.reset(program.net_index[fault.net], fault.stuck_value)
        for pin, value, _ in stack:
            replay.assign(pin, value)
        assert engine.machine_codes() == replay.machine_codes(), (fault, stack)
        assert engine.detected == replay.detected, (fault, stack)
        assert engine.d_frontier() == replay.d_frontier(), (fault, stack)

        assigned = {program.net_names[pin]: value for pin, value, _ in stack}
        good_ref, faulty_ref = reference._imply(assigned, fault)
        good, faulty = engine.machine_codes()
        for net, row in program.net_index.items():
            assert bit_of_code(good[row]) == good_ref[net], (fault, stack, net)
            assert bit_of_code(faulty[row]) == faulty_ref[net], (fault, stack, net)
        assert engine.detected == reference._detected(good_ref, faulty_ref), (fault, stack)
        node_prog = program.node_prog
        frontier = [program.net_names[node_prog[pos][1]] for pos in engine.d_frontier()]
        assert frontier == reference._d_frontier(good_ref, faulty_ref), (fault, stack)

    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_lifo_sequences_match_replay_and_reference(self, make_circuit, rng):
        circuit = make_circuit()
        reference = DictPodemEngine(circuit)
        program = get_backend("packed").compiled_program(circuit)
        engine = CompiledTernaryPodem(program)
        replay = CompiledTernaryPodem(program)
        pins = [program.net_index[pin] for pin in circuit.combinational_inputs]
        for fault in _sample_faults(circuit, 8):
            engine.reset(program.net_index[fault.net], fault.stuck_value)
            stack = []  # [pin_row, value, trail mark], like run()'s decisions
            for _ in range(3 * len(pins)):
                used = {pin for pin, _, _ in stack}
                free = [pin for pin in pins if pin not in used]
                move = int(rng.integers(0, 3))
                if stack and (move == 0 or not free):  # retract the last few decisions
                    depth = len(stack) - int(rng.integers(1, min(3, len(stack)) + 1))
                    engine.undo(stack[depth][2])
                    del stack[depth:]
                elif stack and move == 1:  # flip the last decision
                    stack[-1][1] ^= 1
                    engine.undo(stack[-1][2])
                    engine.assign(stack[-1][0], stack[-1][1])
                else:  # decide a free pin
                    pin = free[int(rng.integers(0, len(free)))]
                    stack.append([pin, int(rng.integers(0, 2)), engine.trail_mark()])
                    engine.assign(pin, stack[-1][1])
                self._check(engine, replay, reference, program, fault, stack)
            # Retractions outside the trail, in any order, must also hold.
            while stack:
                pin, _, _ = stack.pop(int(rng.integers(0, len(stack))))
                engine.assign(pin, None)
                self._check(engine, replay, reference, program, fault, stack)


@settings(max_examples=20, deadline=None)
@given(
    n_inputs=st.integers(min_value=1, max_value=6),
    n_ffs=st.integers(min_value=0, max_value=6),
    n_gates=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_podem_dict_and_compiled_agree_on_random_circuits(n_inputs, n_ffs, n_gates, seed):
    """Property: identical PODEM results on random circuits at limits 0/1/15."""
    circuit = generate_circuit(CircuitSpec("fuzz", n_inputs, n_ffs, n_gates, seed=seed))
    faults = collapse_faults(circuit)
    for limit in (0, 1, 15):
        dict_engine = PodemEngine(circuit, backtrack_limit=limit, mode="dict")
        compiled = PodemEngine(circuit, backtrack_limit=limit, mode="compiled")
        for fault in faults:
            _assert_same_result(
                dict_engine.generate(fault), compiled.generate(fault), (limit, fault)
            )


class TestPodemParity:
    @pytest.mark.parametrize("make_circuit", CIRCUITS)
    def test_full_fault_list_small_circuits(self, make_circuit):
        circuit = make_circuit()
        dict_engine = PodemEngine(circuit, mode="dict")
        compiled = PodemEngine(circuit, mode="compiled")
        faults = full_fault_list(circuit)
        if len(faults) > 64:  # keep the dict reference's share of the runtime sane
            stride = len(faults) / 64
            faults = [faults[int(i * stride)] for i in range(64)]
        for fault in faults:
            _assert_same_result(
                dict_engine.generate(fault), compiled.generate(fault), fault
            )

    @pytest.mark.parametrize("name", default_workload_names())
    def test_benchmark_profile_parity(self, name):
        """Identical classification and cubes on every benchmark profile."""
        workload = build_workload(name)
        circuit = workload.circuit
        cap = 16 if circuit.n_gates <= 650 else 8
        faults = _sample_faults(circuit, cap)
        dict_engine = PodemEngine(circuit, backtrack_limit=15, mode="dict")
        compiled = PodemEngine(circuit, backtrack_limit=15, mode="compiled")
        simulator = FaultSimulator(circuit)
        statuses = set()
        for fault in faults:
            reference = dict_engine.generate(fault)
            result = compiled.generate(fault)
            _assert_same_result(reference, result, (name, fault))
            statuses.add(result.status)
            if result.detected:
                # The cube, with X bits filled pessimistically both ways,
                # must still detect its target fault.
                for fill in (ZERO, ONE):
                    bits = result.cube.filled_with(fill).bits
                    assert simulator.detects(bits, fault), (name, fault, fill)
        assert "detected" in statuses, name


class TestBacktrackLimits:
    def _redundant_circuit(self) -> Circuit:
        # y = OR(a, NOT(a)) is constant 1: y/sa1 is undetectable.
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_gate("y", GateType.OR, ["a", "na"])
        circuit.add_output("y")
        return circuit

    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_redundant_fault_at_tiny_limits(self, limit):
        circuit = self._redundant_circuit()
        fault = StuckAtFault("y", ONE)
        reference = PodemEngine(circuit, backtrack_limit=limit, mode="dict").generate(fault)
        result = PodemEngine(circuit, backtrack_limit=limit, mode="compiled").generate(fault)
        _assert_same_result(reference, result, limit)
        # Proving redundancy needs one backtrack: limit 0 aborts, limits >= 1
        # exhaust the (single-pin) search space.
        assert result.status == ("aborted" if limit == 0 else "untestable")

    def test_exact_limit_boundary(self):
        """A run that used B backtracks must survive limit B and abort at B-1."""
        circuit = b01_like_fsm()
        unlimited = PodemEngine(circuit, backtrack_limit=10_000, mode="compiled")
        fault = next(
            (
                f
                for f in collapse_faults(circuit)
                if unlimited.generate(f).backtracks > 0
            ),
            None,
        )
        assert fault is not None, "expected at least one backtracking fault"
        backtracks = unlimited.generate(fault).backtracks
        for limit, mode in ((backtracks, "exact"), (backtracks - 1, "below")):
            reference = PodemEngine(circuit, backtrack_limit=limit, mode="dict").generate(fault)
            result = PodemEngine(circuit, backtrack_limit=limit, mode="compiled").generate(fault)
            _assert_same_result(reference, result, (fault, mode))
            if mode == "below":
                assert result.status == "aborted"
            else:
                assert result.status != "aborted"

    @pytest.mark.parametrize("limit", [0, 1])
    def test_tiny_limits_across_fault_list(self, limit):
        circuit = b01_like_fsm()
        dict_engine = PodemEngine(circuit, backtrack_limit=limit, mode="dict")
        compiled = PodemEngine(circuit, backtrack_limit=limit, mode="compiled")
        for fault in collapse_faults(circuit):
            _assert_same_result(
                dict_engine.generate(fault), compiled.generate(fault), (limit, fault)
            )


class TestModeResolution:
    def test_backend_preferences(self, monkeypatch):
        monkeypatch.delenv(ATPG_MODE_ENV_VAR, raising=False)
        circuit = c17()
        assert PodemEngine(circuit, backend="naive").implementation == "dict"
        assert PodemEngine(circuit, backend="packed").implementation == "compiled"

    def test_explicit_mode_beats_backend(self):
        circuit = c17()
        assert PodemEngine(circuit, backend="naive", mode="compiled").implementation == "compiled"
        assert PodemEngine(circuit, backend="packed", mode="dict").implementation == "dict"

    def test_env_var_forces_mode(self, monkeypatch):
        circuit = c17()
        monkeypatch.setenv(ATPG_MODE_ENV_VAR, "dict")
        assert PodemEngine(circuit, backend="packed").implementation == "dict"
        monkeypatch.setenv(ATPG_MODE_ENV_VAR, "compiled")
        assert PodemEngine(circuit, backend="naive").implementation == "compiled"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_atpg_mode("vectorised")
        with pytest.raises(ValueError):
            PodemEngine(c17(), mode="nope")

    def test_compiled_engine_shares_backend_program(self):
        circuit = c17()
        backend = get_backend("packed")
        engine = PodemEngine(circuit, backend=backend)
        assert engine.program is backend.compiled_program(circuit)

    def test_unknown_fault_net_raises(self):
        engine = PodemEngine(c17(), mode="compiled")
        with pytest.raises(KeyError):
            engine.generate(StuckAtFault("no_such_net", ZERO))
