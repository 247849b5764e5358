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

Toggle consumers (the power model's switching kernel, scan capture
activity, :meth:`PackedLogicSimulator.gate_activity`) never see a value
table: :meth:`PackedLogicSimulator.boundary_flips` writes the lanes once
into a packed ``uint8`` table (:func:`lanes_to_bytes`) and forms every
boundary flip with a byte-wise shift-xor (:func:`boundary_flips`), an
eighth of the bytes of the ``(n_nets, n_patterns)`` bool table that
``simulate`` / ``observe_outputs`` / ``net_value_matrix`` expand.
"""

from __future__ import annotations

from itertools import repeat
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
#: Lanes :func:`lanes_to_bytes` converts per ``bytes.join``.
_BYTES_CHUNK_LANES = 1024


def pack_lanes(matrix: np.ndarray) -> List[int]:
    """Pack each column of a bool matrix into one python big-int lane.

    Bit ``j`` of lane ``p`` is pattern ``j`` of pin ``p`` (little-endian
    bit order).
    """
    packed_bytes = np.packbits(matrix.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed_bytes]


def lanes_to_bytes(lanes: Sequence[int], n_patterns: int) -> np.ndarray:
    """Write big-int lanes into a ``(len(lanes), n_bytes)`` packed ``uint8`` table.

    Row ``r`` holds lane ``r`` little-endian: bit ``j % 8`` of byte
    ``j // 8`` is pattern ``j`` (``np.unpackbits(..., bitorder="little")``
    reads it back).  ``n_bytes`` is ``ceil(n_patterns / 8)``, at least 1.
    """
    n_bytes = max((n_patterns + 7) // 8, 1)
    buffer = bytearray(len(lanes) * n_bytes)
    # Joining a chunk of lanes at a time beats one slice store per lane by
    # ~2x, and keeps the transient ``bytes`` objects to one chunk.
    chunk = _BYTES_CHUNK_LANES
    for start in range(0, len(lanes), chunk):
        part = lanes[start : start + chunk]
        buffer[start * n_bytes : (start + len(part)) * n_bytes] = b"".join(
            map(int.to_bytes, part, repeat(n_bytes), repeat("little"))
        )
    return np.frombuffer(buffer, dtype=np.uint8).reshape(len(lanes), n_bytes)


def lanes_to_matrix(lanes: Sequence[int], n_patterns: int) -> np.ndarray:
    """Expand big-int lanes back into a ``(len(lanes), n_patterns)`` bool matrix."""
    bits = np.unpackbits(lanes_to_bytes(lanes, n_patterns), axis=1, bitorder="little")
    return bits[:, :n_patterns].astype(bool)


def boundary_flips(packed: np.ndarray, n_patterns: int) -> np.ndarray:
    """Packed boundary flips of a :func:`lanes_to_bytes` table.

    Bit ``j`` of row ``r`` (same little-endian layout) is set when row ``r``
    changes between pattern ``j`` and ``j + 1``.  The table is shifted right
    by one bit across byte seams — ``(P >> 1) | (P[:, 1:] << 7)`` — and
    xor-ed with itself; bits at and above ``n_patterns - 1`` are cleared and
    the result is cut to ``ceil((n_patterns - 1) / 8)`` bytes, so it equals
    ``np.packbits(values[:, 1:] != values[:, :-1], axis=1, bitorder="little")``.
    """
    n_boundaries = max(n_patterns - 1, 0)
    n_bytes = (n_boundaries + 7) // 8
    if n_boundaries == 0:
        return np.zeros((packed.shape[0], 0), dtype=np.uint8)
    flips = packed >> 1
    flips[:, :-1] |= packed[:, 1:] << 7
    flips ^= packed
    tail = n_boundaries % 8
    if tail:
        flips[:, n_bytes - 1] &= (1 << tail) - 1
    return flips[:, :n_bytes]


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
    def _lanes(self, patterns: np.ndarray) -> Tuple[List[int], int]:
        """One lane per value-table row for ``patterns``, and the pattern count."""
        matrix = check_pattern_matrix(patterns, self.program.n_inputs)
        n_patterns = matrix.shape[0]
        if n_patterns == 0:
            return [0] * self.program.n_nets, 0
        mask = (1 << n_patterns) - 1
        return evaluate_lanes(self.program, pack_lanes(matrix), mask), n_patterns

    def _value_matrix(self, patterns: np.ndarray) -> np.ndarray:
        """Full ``(n_nets, n_patterns)`` bool value table for ``patterns``."""
        return lanes_to_matrix(*self._lanes(patterns))

    def _flips(self, patterns: np.ndarray) -> Tuple[np.ndarray, int]:
        """Packed boundary flips (see :func:`boundary_flips`) and the boundary count."""
        lanes, n_patterns = self._lanes(patterns)
        packed = lanes_to_bytes(lanes, n_patterns)
        del lanes  # the byte table replaces the lanes before the flips are formed
        return boundary_flips(packed, n_patterns), max(n_patterns - 1, 0)

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
        """Per-net toggle indicators between consecutive patterns.

        Unpacked from the packed boundary flips, so no value table is built.
        """
        flips, n_boundaries = self._flips(patterns)
        bits = np.unpackbits(flips, axis=1, count=n_boundaries, bitorder="little")
        toggles = bits.view(bool)
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

    def boundary_flips(self, patterns: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """Every net's boundary flips, packed (``(names, (n_nets, n_bytes))``).

        Bit ``j`` of row ``r`` (little-endian within each ``uint8``) is set
        when net ``r`` toggles between pattern ``j`` and ``j + 1``; ``n_bytes``
        is ``ceil((n_patterns - 1) / 8)``.  Rows follow
        :meth:`net_value_matrix`.  This is the input of
        :func:`repro.power.switching.switching_profile`.
        """
        return list(self.program.net_names), self._flips(patterns)[0]
