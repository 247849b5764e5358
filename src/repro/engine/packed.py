"""Bit-parallel (pattern-packed) logic simulation over a compiled program.

Each net's values for a whole pattern set are packed into one arbitrary-width
python integer (a "lane"): bit ``j`` of the lane holds pattern ``j``, so one
bitwise instruction evaluates a gate for every pattern at once.  CPython
big-int bitwise ops run in C over 30-bit limbs with ~100 ns dispatch, which
beats NumPy's ~1 µs per-call overhead by an order of magnitude at the pattern
widths the reproduction produces (one to a few thousand patterns).
:class:`PackedLogicSimulator` exposes the same surface as
:class:`repro.circuit.simulator.LogicSimulator` (``simulate`` /
``observe_outputs`` / ``gate_activity``) and is value-identical to it, which
the engine parity tests assert bit-for-bit.

Inverting ops XOR against ``(1 << n_patterns) - 1``, so no lane ever holds a
bit beyond the pattern count.  The fault-grading kernels in
:mod:`repro.engine.fault` evaluate the good machine with the same
:func:`evaluate_lanes`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.simulator import check_pattern_matrix
from repro.cubes.cube import TestSet
from repro.engine.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    compile_circuit,
)


# -- packing ---------------------------------------------------------------
def pack_lanes(matrix: np.ndarray) -> List[int]:
    """Pack each column of a bool matrix into one python big-int lane.

    Bit ``j`` of lane ``p`` is pattern ``j`` of pin ``p`` (little-endian
    bit order).
    """
    packed_bytes = np.packbits(matrix.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed_bytes]


def lanes_to_matrix(lanes: Sequence[int], n_patterns: int) -> np.ndarray:
    """Expand big-int lanes back into a ``(len(lanes), n_patterns)`` bool matrix."""
    n_bytes = max((n_patterns + 7) // 8, 1)
    buffer = bytearray(len(lanes) * n_bytes)
    offset = 0
    for lane in lanes:
        buffer[offset : offset + n_bytes] = lane.to_bytes(n_bytes, "little")
        offset += n_bytes
    as_bytes = np.frombuffer(buffer, dtype=np.uint8).reshape(len(lanes), n_bytes)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n_patterns].astype(bool)


# -- lane evaluation -------------------------------------------------------
def evaluate_lanes(
    program: CompiledCircuit, input_lanes: Sequence[int], mask: int
) -> List[int]:
    """Evaluate the compiled program over big-int lanes.

    Args:
        program: compiled circuit.
        input_lanes: one lane per test pin (rows ``0..n_inputs-1``).
        mask: ``(1 << n_patterns) - 1``; inverting ops XOR against it so no
            garbage bits ever exist beyond the pattern count.

    Returns:
        One lane per value-table row, in row order.
    """
    values: List[int] = [0] * program.n_nets
    values[: program.n_inputs] = list(input_lanes)
    for op, out, src in program.node_prog:
        if op == OP_AND or op == OP_NAND:
            acc = values[src[0]]
            for row in src[1:]:
                acc &= values[row]
            if op == OP_NAND:
                acc ^= mask
        elif op == OP_OR or op == OP_NOR:
            acc = values[src[0]]
            for row in src[1:]:
                acc |= values[row]
            if op == OP_NOR:
                acc ^= mask
        elif op == OP_XOR or op == OP_XNOR:
            acc = values[src[0]]
            for row in src[1:]:
                acc ^= values[row]
            if op == OP_XNOR:
                acc ^= mask
        elif op == OP_NOT:
            acc = values[src[0]] ^ mask
        elif op == OP_BUF:
            acc = values[src[0]]
        elif op == OP_CONST0:
            acc = 0
        else:  # OP_CONST1
            acc = mask
        values[out] = acc
    return values


class PackedLogicSimulator:
    """Bit-parallel two-valued simulator (drop-in for ``LogicSimulator``).

    Args:
        circuit: circuit to simulate; compiled once at construction.
        program: reuse an already-compiled program for ``circuit`` (the
            packed backend shares one per circuit); compiled here if omitted.
    """

    def __init__(
        self,
        circuit: Circuit,
        program: Optional[CompiledCircuit] = None,
    ) -> None:
        self.circuit = circuit
        self.program = program if program is not None else compile_circuit(circuit)

    # -- internals ---------------------------------------------------------
    def _value_matrix(self, patterns: np.ndarray) -> np.ndarray:
        """Full ``(n_nets, n_patterns)`` bool value table for ``patterns``."""
        matrix = check_pattern_matrix(patterns, self.program.n_inputs)
        n_patterns = matrix.shape[0]
        if n_patterns == 0:
            return np.zeros((self.program.n_nets, 0), dtype=bool)
        mask = (1 << n_patterns) - 1
        lanes = evaluate_lanes(self.program, pack_lanes(matrix), mask)
        return lanes_to_matrix(lanes, n_patterns)

    # -- LogicSimulator-compatible surface ---------------------------------
    def simulate(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Evaluate every net for every pattern (net name -> bool column).

        The returned columns are row views of one dense matrix (already
        contiguous); treat them as read-only.
        """
        values = self._value_matrix(patterns)
        return {net: values[row] for row, net in enumerate(self.program.net_names)}

    def simulate_test_set(self, patterns: TestSet) -> Dict[str, np.ndarray]:
        """Simulate a fully specified :class:`TestSet` (convenience wrapper)."""
        return self.simulate(patterns.matrix)

    def observe_outputs(self, patterns: np.ndarray) -> np.ndarray:
        """Observable responses, one row per pattern (see ``LogicSimulator``)."""
        values = self._value_matrix(patterns)
        return np.ascontiguousarray(values[self.program.output_rows].T)

    def gate_activity(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-net toggle indicators between consecutive patterns."""
        values = self._value_matrix(patterns)
        toggles = values[:, 1:] != values[:, :-1]
        return {net: toggles[row] for row, net in enumerate(self.program.net_names)}

    # -- engine-native fast path -------------------------------------------
    def net_value_matrix(self, patterns: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """All net values as one matrix (``(names, (n_nets, n_patterns))``).

        The row order matches ``LogicSimulator``'s net dictionary order
        (test pins, then topological order), so downstream consumers — the
        switching-activity model in particular — get bit-identical inputs
        from either backend.
        """
        return list(self.program.net_names), self._value_matrix(patterns)
