"""Reference engines: the straightforward simulators the packed engine is checked against.

The package ships one simulation engine, the compiled bit-packed one
(:mod:`repro.engine`).  Its exact oracles live here, in the tests, where
the parity suites run them side by side with the packed engine:

* :class:`LogicSimulator` — two-valued, pattern-parallel simulation that
  walks gate objects in topological order, one NumPy boolean column per
  net (:func:`evaluate_bool` per gate);
* :class:`ThreeValuedSimulator` — scalar 0/1/X simulation of one partially
  specified assignment (:func:`evaluate_ternary` per gate);
* :class:`NaiveFaultSimulator` — per-net dict cone walk on bool arrays,
  with the packed simulator's blocking, dropping and work counters;
* :class:`DictPodemEngine` — PODEM that re-implies the whole circuit
  through per-net dictionaries on every decision, the oracle of the
  compiled ternary PODEM (:class:`~repro.engine.ternary.CompiledTernaryPodem`);
* :class:`NaiveFoldSimulator` — the power fold fed from a naive value
  table packed by :func:`pack_flips`, in place of the packed engine's
  streamed flips.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.atpg.faults import StuckAtFault
from repro.atpg.podem import PodemResult
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestCube, TestSet
from repro.engine.fault import (
    DROP_BLOCK_PATTERNS,
    FaultSimulationResult,
    _assemble,
    _blocks,
    _flush_run_telemetry,
    _new_stats,
    _unique_faults,
    _validate_run,
)
from repro.engine.packed import check_pattern_matrix
from repro.obs import recorder as obs
from repro.power.estimator import PowerEstimator


# -- gate evaluation ---------------------------------------------------------
def evaluate_bool(gate_type: GateType, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a gate over pattern-parallel boolean arrays.

    Args:
        gate_type: the gate primitive (must not be a source or a DFF — the
            simulator resolves those separately).
        inputs: one boolean array per gate input, all the same shape.

    Returns:
        Boolean array of the gate output, one entry per pattern.
    """
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0].copy()
    if gate_type is GateType.NOT:
        return ~inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result &= value
        return ~result if gate_type is GateType.NAND else result
    if gate_type in (GateType.OR, GateType.NOR):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result |= value
        return ~result if gate_type is GateType.NOR else result
    if gate_type in (GateType.XOR, GateType.XNOR):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result ^= value
        return ~result if gate_type is GateType.XNOR else result
    raise ValueError(f"cannot evaluate gate type {gate_type} as a logic function")


def _ternary_and(values: Sequence[int]) -> int:
    if any(v == ZERO for v in values):
        return ZERO
    if all(v == ONE for v in values):
        return ONE
    return X


def _ternary_or(values: Sequence[int]) -> int:
    if any(v == ONE for v in values):
        return ONE
    if all(v == ZERO for v in values):
        return ZERO
    return X


def _ternary_xor(values: Sequence[int]) -> int:
    if any(v == X for v in values):
        return X
    return int(np.bitwise_xor.reduce([int(v) for v in values]))


def _ternary_not(value: int) -> int:
    if value == X:
        return X
    return ONE - value


def evaluate_ternary(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a gate in three-valued (0/1/X) logic.

    Controlling values dominate: an AND with any 0 input is 0 even if other
    inputs are X, which is exactly the behaviour PODEM's implication step
    relies on.
    """
    values: List[int] = [int(v) for v in inputs]
    if gate_type in (GateType.BUF, GateType.DFF):
        return values[0]
    if gate_type is GateType.NOT:
        return _ternary_not(values[0])
    if gate_type is GateType.AND:
        return _ternary_and(values)
    if gate_type is GateType.NAND:
        return _ternary_not(_ternary_and(values))
    if gate_type is GateType.OR:
        return _ternary_or(values)
    if gate_type is GateType.NOR:
        return _ternary_not(_ternary_or(values))
    if gate_type is GateType.XOR:
        return _ternary_xor(values)
    if gate_type is GateType.XNOR:
        return _ternary_not(_ternary_xor(values))
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    raise ValueError(f"cannot evaluate gate type {gate_type} as a logic function")


def controlling_value(gate_type: GateType) -> int:
    """The input value that alone determines the gate output (AND->0, OR->1).

    Raises:
        ValueError: for gate types without a controlling value (XOR, NOT, ...).
    """
    if gate_type in (GateType.AND, GateType.NAND):
        return ZERO
    if gate_type in (GateType.OR, GateType.NOR):
        return ONE
    raise ValueError(f"{gate_type} has no controlling value")


def inversion_parity(gate_type: GateType) -> int:
    """1 if the gate inverts its 'natural' function (NAND/NOR/NOT/XNOR), else 0."""
    return 1 if gate_type in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR) else 0


# -- logic simulation ------------------------------------------------------
class LogicSimulator:
    """Pattern-parallel two-valued simulator for the full-scan view.

    Args:
        circuit: the circuit to simulate; it is validated and levelised once
            at construction, so repeated :meth:`simulate` calls are cheap.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self._order = circuit.topological_order()
        self._input_pins = circuit.combinational_inputs
        self._pin_index = {net: i for i, net in enumerate(self._input_pins)}

    # -- helpers -----------------------------------------------------------
    def _check_patterns(self, patterns: np.ndarray) -> np.ndarray:
        return check_pattern_matrix(patterns, len(self._input_pins))

    # -- simulation --------------------------------------------------------------
    def simulate(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Evaluate every net for every pattern.

        Args:
            patterns: ``(n_patterns, n_test_pins)`` binary/boolean matrix in
                the :attr:`Circuit.combinational_inputs` pin order, or a
                :class:`TestSet` converted by the caller with ``.matrix``.

        Returns:
            Mapping from net name to a boolean array of length ``n_patterns``.
        """
        patterns = self._check_patterns(patterns)
        n_patterns = patterns.shape[0]
        values: Dict[str, np.ndarray] = {}
        for net, column in zip(self._input_pins, patterns.T):
            values[net] = np.ascontiguousarray(column)
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                values[name] = np.zeros(n_patterns, dtype=bool)
            elif gate.gate_type is GateType.CONST1:
                values[name] = np.ones(n_patterns, dtype=bool)
            else:
                values[name] = evaluate_bool(gate.gate_type, [values[net] for net in gate.inputs])
        return values

    def observe_outputs(self, patterns: np.ndarray) -> np.ndarray:
        """Return the observable responses, one row per pattern.

        The columns follow :attr:`Circuit.combinational_outputs` (primary
        outputs, then flip-flop data inputs), which is what a tester compares
        after the capture cycle of a full-scan test.
        """
        values = self.simulate(patterns)
        outputs = self.circuit.combinational_outputs
        result = np.zeros((np.asarray(patterns).shape[0], len(outputs)), dtype=bool)
        for column, net in enumerate(outputs):
            result[:, column] = values[net]
        return result

    def gate_activity(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-net toggle indicators between consecutive patterns.

        Entry ``j`` of each array is ``True`` when the net value changes
        between pattern ``j`` and pattern ``j + 1``; arrays have length
        ``n_patterns - 1``.  This is the raw signal the power model weighs by
        node capacitance.
        """
        values = self.simulate(patterns)
        return {net: arr[1:] != arr[:-1] for net, arr in values.items()}

    def net_value_matrix(self, patterns: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """All net values as ``(names, (n_nets, n_patterns) bool matrix)``.

        Row order is the simulation order (test pins, then topological gate
        order) — the same contract as the packed engine's implementation, so
        consumers like the switching-activity model are backend-agnostic.
        """
        values = self.simulate(patterns)
        names = list(values.keys())
        if not names:
            return names, np.zeros((0, np.asarray(patterns).shape[0]), dtype=bool)
        return names, np.vstack([values[net] for net in names])


class ThreeValuedSimulator:
    """Scalar three-valued simulator used by the ATPG engine.

    The simulator owns a value map (net name -> 0/1/X) that callers update
    through :meth:`set_pin` / :meth:`assign`, after which :meth:`propagate`
    re-evaluates the combinational logic in topological order.
    """

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self._order = circuit.topological_order()
        self._input_pins = circuit.combinational_inputs
        self.values: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Set every net (inputs included) back to X."""
        self.values = {net: X for net in self.circuit.nets()}

    def set_pin(self, net: str, value: int) -> None:
        """Assign a test pin (primary input or flip-flop output)."""
        if net not in self._input_pins:
            raise ValueError(f"{net!r} is not a test pin of {self.circuit.name}")
        if value not in (ZERO, ONE, X):
            raise ValueError(f"invalid logic value {value!r}")
        self.values[net] = value

    def assign(self, assignment: Mapping[str, int]) -> None:
        """Assign several test pins at once."""
        for net, value in assignment.items():
            self.set_pin(net, value)

    def propagate(self) -> Dict[str, int]:
        """Re-evaluate all combinational gates; returns the full value map."""
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                self.values[name] = ZERO
            elif gate.gate_type is GateType.CONST1:
                self.values[name] = ONE
            else:
                self.values[name] = evaluate_ternary(
                    gate.gate_type, [self.values[net] for net in gate.inputs]
                )
        return dict(self.values)

    def simulate_cube(self, cube_bits: Sequence[int]) -> Dict[str, int]:
        """Reset, apply a test cube over the test pins, propagate and return values."""
        if len(cube_bits) != len(self._input_pins):
            raise ValueError(
                f"cube has {len(cube_bits)} bits, circuit has {len(self._input_pins)} test pins"
            )
        self.reset()
        for net, value in zip(self._input_pins, cube_bits):
            self.values[net] = int(value)
        return self.propagate()


# -- fault simulation ------------------------------------------------------
class NaiveFaultSimulator:
    """Reference fault simulator: per-net dict cone walk on bool arrays.

    This is the original ``FaultSimulator`` algorithm, restructured into
    pattern blocks so fault dropping actually skips work (the historical
    ``drop_detected`` flag was a no-op).  Results are bit-identical to the
    unblocked implementation.
    """

    def __init__(self, circuit: Circuit, block_patterns: int = DROP_BLOCK_PATTERNS) -> None:
        circuit.validate()
        self.circuit = circuit
        self.block_patterns = max(1, int(block_patterns))
        self._logic = LogicSimulator(circuit)
        self._order_rank = {net: i for i, net in enumerate(circuit.topological_order())}
        self._fanout = circuit.fanout_map()
        self._output_set = set(circuit.combinational_outputs)
        self._cone_cache: Dict[str, List[str]] = {}
        self._observable_cache: Dict[str, bool] = {}
        self.last_run_stats: Dict[str, int] = _new_stats()

    # -- internals ---------------------------------------------------------
    def _downstream_cone(self, net: str) -> List[str]:
        """Combinational gates reachable from ``net``, in topological order."""
        cached = self._cone_cache.get(net)
        if cached is not None:
            return cached
        seen: set = set()
        stack = [net]
        while stack:
            current = stack.pop()
            for reader in self._fanout.get(current, []):
                if reader in seen:
                    continue
                if self.circuit.get_gate(reader).gate_type.is_sequential:
                    continue
                seen.add(reader)
                stack.append(reader)
        cone = sorted(seen, key=lambda name: self._order_rank.get(name, 0))
        self._cone_cache[net] = cone
        return cone

    def _structurally_observable(self, net: str) -> bool:
        """Whether ``net`` reaches any observable net (or is one itself).

        Faults on structurally unobservable nets can never be detected, so
        they are skipped without cone work — the same skip the packed
        kernels apply (empty ``detect_rows`` and unobservable site), which
        keeps ``cone_evaluations`` aligned across backends.
        """
        cached = self._observable_cache.get(net)
        if cached is None:
            cached = net in self._output_set or any(
                name in self._output_set for name in self._downstream_cone(net)
            )
            self._observable_cache[net] = cached
        return cached

    def _simulate_fault_block(
        self,
        fault: object,
        good_block: Dict[str, np.ndarray],
        width: int,
    ) -> np.ndarray:
        """Boolean array marking the block patterns that detect ``fault``."""
        forced = np.full(width, bool(fault.stuck_value))
        faulty: Dict[str, np.ndarray] = {fault.net: forced}
        detected = np.zeros(width, dtype=bool)
        if fault.net in self._output_set:
            detected |= good_block[fault.net] != forced
        for name in self._downstream_cone(fault.net):
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                value = np.zeros(width, dtype=bool)
            elif gate.gate_type is GateType.CONST1:
                value = np.ones(width, dtype=bool)
            else:
                inputs = [faulty.get(net, good_block[net]) for net in gate.inputs]
                value = evaluate_bool(gate.gate_type, inputs)
            faulty[name] = value
            if name in self._output_set:
                detected |= value != good_block[name]
        return detected

    # -- public API --------------------------------------------------------
    def run(
        self,
        patterns: TestSet,
        faults: Sequence[object],
        drop_detected: bool = True,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``faults`` (see module docs)."""
        stats = self.last_run_stats = _new_stats()
        early = _validate_run(patterns, self.circuit.n_test_pins, faults)
        if early is not None:
            return early
        faults = _unique_faults(faults)
        n_patterns = len(patterns)
        with obs.span(f"logic_sim/{self.circuit.name}/naive"):
            good_values = self._logic.simulate(patterns.matrix)
        first_detect: List[Optional[int]] = [None] * len(faults)
        observable = [self._structurally_observable(f.net) for f in faults]

        # Blocking only exists to give dropping something to skip; without
        # dropping a single full-width pass avoids the per-block overhead
        # (results are block-size-invariant either way).
        block_size = self.block_patterns if drop_detected else n_patterns
        with obs.span(f"fault_sim/{self.circuit.name}/naive/grade"):
            for block in _blocks(n_patterns, block_size):
                stats["blocks"] += 1
                start, width = block.start, len(block)
                good_block = {
                    net: arr[start : block.stop] for net, arr in good_values.items()
                }
                pending = 0
                for index, fault in enumerate(faults):
                    if first_detect[index] is not None:
                        if drop_detected:
                            stats["dropped_block_evaluations"] += 1
                            continue
                    if not observable[index]:
                        continue  # structurally unobservable: undetected, no work
                    stats["cone_evaluations"] += 1
                    detecting = self._simulate_fault_block(fault, good_block, width)
                    hits = np.flatnonzero(detecting)
                    if hits.size:
                        if first_detect[index] is None:
                            first_detect[index] = start + int(hits[0])
                    else:
                        pending += 1
                if drop_detected and pending == 0:
                    break
        result = _assemble(faults, first_detect, n_patterns)
        _flush_run_telemetry(stats, result)
        return result


# -- PODEM -------------------------------------------------------------------
class DictPodemEngine:
    """Reference PODEM engine: full dict-walking re-implication per decision.

    Args:
        circuit: circuit under test (full-scan combinational view).
        backtrack_limit: abort threshold; hard-to-detect or redundant faults
            give up after this many backtracks.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 100) -> None:
        circuit.validate()
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._order = circuit.topological_order()
        self._pins = circuit.combinational_inputs
        self._pin_set = set(self._pins)
        self._outputs = circuit.combinational_outputs
        self._output_set = set(self._outputs)
        self._fanout = circuit.fanout_map()
        self._levels = circuit.levelize()

    # -- simulation ------------------------------------------------------------
    def _imply(
        self, assignment: Dict[str, int], fault: StuckAtFault
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Three-valued simulation of the good and faulty machines."""
        good: Dict[str, int] = {}
        faulty: Dict[str, int] = {}
        for pin in self._pins:
            value = assignment.get(pin, X)
            good[pin] = value
            faulty[pin] = value
        if fault.net in self._pin_set:
            faulty[fault.net] = fault.stuck_value
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                good_value, faulty_value = ZERO, ZERO
            elif gate.gate_type is GateType.CONST1:
                good_value, faulty_value = ONE, ONE
            else:
                good_value = evaluate_ternary(gate.gate_type, [good[n] for n in gate.inputs])
                faulty_value = evaluate_ternary(gate.gate_type, [faulty[n] for n in gate.inputs])
            good[name] = good_value
            faulty[name] = faulty_value if name != fault.net else fault.stuck_value
        return good, faulty

    # -- analysis helpers ------------------------------------------------------------
    @staticmethod
    def _has_d(good: Dict[str, int], faulty: Dict[str, int], net: str) -> bool:
        g, f = good[net], faulty[net]
        return g != X and f != X and g != f

    def _detected(self, good: Dict[str, int], faulty: Dict[str, int]) -> bool:
        return any(self._has_d(good, faulty, net) for net in self._outputs)

    def _d_frontier(self, good: Dict[str, int], faulty: Dict[str, int]) -> List[str]:
        frontier: List[str] = []
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type.is_source:
                continue
            if self._has_d(good, faulty, name):
                continue
            if good[name] != X and faulty[name] != X:
                continue
            if any(self._has_d(good, faulty, net) for net in gate.inputs):
                frontier.append(name)
        return frontier

    def _x_path_exists(self, start: str, good: Dict[str, int], faulty: Dict[str, int]) -> bool:
        """Is there a path of still-undetermined nets from ``start`` to an output?"""
        if start in self._output_set:
            return True
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for reader in self._fanout.get(current, []):
                gate = self.circuit.get_gate(reader)
                if gate.gate_type.is_sequential:
                    # Flip-flop data inputs are observable; reaching the net
                    # feeding one is reaching an output (handled below via
                    # the output-set check on `current`).
                    continue
                if reader in seen:
                    continue
                if good[reader] != X and faulty[reader] != X and not self._has_d(good, faulty, reader):
                    continue
                if reader in self._output_set:
                    return True
                seen.add(reader)
                stack.append(reader)
            if current in self._output_set:
                return True
        return False

    # -- objective and backtrace ------------------------------------------------------
    def _choose_objective(
        self,
        fault: StuckAtFault,
        good: Dict[str, int],
        faulty: Dict[str, int],
    ) -> Optional[Tuple[str, int]]:
        """Return the next (net, value) objective, or None if the branch is dead."""
        site_value = good[fault.net]
        if site_value == X:
            return fault.net, fault.activation_value
        if site_value == fault.stuck_value:
            return None  # fault cannot be excited under the current assignment
        frontier = self._d_frontier(good, faulty)
        if not frontier:
            return None
        # Prefer the frontier gate closest to an observable output (shallowest
        # remaining propagation path): highest level is a decent proxy.
        frontier.sort(key=lambda name: self._levels.get(name, 0), reverse=True)
        for name in frontier:
            if not self._x_path_exists(name, good, faulty):
                continue
            gate = self.circuit.get_gate(name)
            for net in gate.inputs:
                if good[net] == X:
                    try:
                        value = ONE - controlling_value(gate.gate_type)
                    except ValueError:
                        value = ONE  # XOR-like gates: any definite value helps
                    return net, value
        return None

    def _backtrace(
        self, net: str, value: int, good: Dict[str, int]
    ) -> Optional[Tuple[str, int]]:
        """Walk an objective back to an unassigned test pin."""
        current, target = net, value
        guard = 0
        while current not in self._pin_set:
            guard += 1
            if guard > len(self._order) + len(self._pins) + 1:
                return None
            gate = self.circuit.get_gate(current)
            if gate.gate_type.is_source:
                return None
            target = target ^ inversion_parity(gate.gate_type)
            chosen = None
            for candidate in gate.inputs:
                if good[candidate] == X:
                    chosen = candidate
                    break
            if chosen is None:
                return None
            current = chosen
        if good[current] != X:
            return None
        return current, target

    # -- main search --------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Search for a test cube detecting ``fault``."""
        assignment: Dict[str, int] = {}
        decisions: List[List] = []  # [pin, value, exhausted]
        backtracks = 0
        total_decisions = 0

        while True:
            good, faulty = self._imply(assignment, fault)
            if self._detected(good, faulty):
                cube = self._cube_from_assignment(assignment, fault)
                return PodemResult(fault, "detected", cube, backtracks, total_decisions)

            objective = self._choose_objective(fault, good, faulty)
            next_assignment: Optional[Tuple[str, int]] = None
            if objective is not None:
                next_assignment = self._backtrace(objective[0], objective[1], good)

            if next_assignment is None:
                # Dead branch: undo decisions until one still has an untried value.
                while decisions and decisions[-1][2]:
                    pin, __, __ = decisions.pop()
                    assignment.pop(pin, None)
                if not decisions:
                    return PodemResult(fault, "untestable", None, backtracks, total_decisions)
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return PodemResult(fault, "aborted", None, backtracks, total_decisions)
                decisions[-1][1] ^= 1
                decisions[-1][2] = True
                assignment[decisions[-1][0]] = decisions[-1][1]
                continue

            pin, value = next_assignment
            assignment[pin] = value
            decisions.append([pin, value, False])
            total_decisions += 1

    def _cube_from_assignment(self, assignment: Dict[str, int], fault: StuckAtFault) -> TestCube:
        bits = [assignment.get(pin, X) for pin in self._pins]
        return TestCube(bits, name=fault.name)


# -- power -------------------------------------------------------------------
def pack_flips(values: np.ndarray) -> np.ndarray:
    """Packed boundary flips of a ``(n_nets, n_patterns)`` bool value table.

    The layout of :func:`~repro.engine.packed.boundary_flips`:
    ``(n_nets, ceil((n_patterns - 1) / 8))`` ``uint8``, little-endian bits.
    """
    return np.packbits(values[:, 1:] != values[:, :-1], axis=1, bitorder="little")


class NaiveFoldSimulator:
    """Feeds the power fold from the naive value table (the packed engine's
    ``fold_flips`` surface): the sets side by side in one table, packed by
    :func:`pack_flips` and folded whole.

    Swap it into a :class:`~repro.power.estimator.PowerEstimator` with
    :func:`naive_power_estimator`.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._logic = LogicSimulator(circuit)

    def fold_flips(self, matrices: Sequence[np.ndarray], fold) -> None:
        stacked = np.concatenate(list(matrices))
        fold(0, pack_flips(self._logic.net_value_matrix(stacked)[1]))


def naive_power_estimator(circuit: Circuit, **kwargs) -> PowerEstimator:
    """A :class:`~repro.power.estimator.PowerEstimator` whose toggles come
    from :class:`NaiveFoldSimulator` instead of the packed engine."""
    estimator = PowerEstimator(circuit, **kwargs)
    estimator._simulator = NaiveFoldSimulator(circuit)
    return estimator

