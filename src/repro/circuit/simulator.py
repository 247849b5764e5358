"""Logic simulation.

Two simulators share the same levelised evaluation order:

* :class:`LogicSimulator` — two-valued, pattern-parallel.  Input patterns are
  supplied as a ``(n_patterns, n_pins)`` binary matrix over the circuit's
  *test pins* (primary inputs followed by flip-flop outputs); every net is
  evaluated for all patterns at once as a NumPy boolean column.  This is the
  workhorse behind fault simulation and the switching-activity power model.
* :class:`ThreeValuedSimulator` — scalar 0/1/X simulation over a single
  partially specified assignment, used by PODEM to decide implications and
  X-path reachability.

``LogicSimulator`` is the *reference* two-valued implementation and the
parity oracle for the compiled bit-parallel engine in :mod:`repro.engine`;
production paths resolve their simulator through
:func:`repro.engine.backend.get_backend` instead of instantiating it
directly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.circuit.gates import GateType, evaluate_bool, evaluate_ternary
from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestSet


def check_pattern_matrix(patterns: np.ndarray, n_pins: int) -> np.ndarray:
    """Validate and normalise a pattern matrix to ``(n_patterns, n_pins)`` bool.

    The single validation authority for two-valued simulation: the naive
    simulator and every engine backend share it, so error cases and messages
    cannot diverge between backends.

    Raises:
        ValueError: for wrong shapes or patterns still containing X bits.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2 or patterns.shape[1] != n_pins:
        raise ValueError(
            f"patterns must have shape (n, {n_pins}), got {patterns.shape}"
        )
    if patterns.dtype != bool:
        if (patterns == X).any():
            raise ValueError("two-valued simulation requires fully specified patterns")
        patterns = patterns.astype(bool)
    return patterns


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

    def simulate_test_set(self, patterns: TestSet) -> Dict[str, np.ndarray]:
        """Simulate a fully specified :class:`TestSet` (convenience wrapper)."""
        return self.simulate(patterns.matrix)

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

    def value_of(self, net: str) -> int:
        """Current value of a net (call :meth:`propagate` first)."""
        return self.values[net]

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
