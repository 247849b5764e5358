"""Bit-parallel (pattern-packed) logic simulation over a compiled program.

Each net's values for a whole pattern set are packed into one arbitrary-width
python integer (a "lane"): bit ``j`` of the lane holds pattern ``j``, so one
bitwise instruction evaluates a gate for every pattern at once.  CPython
big-int bitwise ops run in C over 30-bit limbs with ~100 ns dispatch, which
beats NumPy's ~1 µs per-call overhead by an order of magnitude at the pattern
widths the reproduction produces (one to a few thousand patterns).
:class:`PackedLogicSimulator` exposes ``simulate`` / ``observe_outputs`` /
``gate_activity`` / ``net_value_matrix`` and is value-identical to the
reference simulator of ``tests/reference_engines.py``, which the engine
parity tests assert bit-for-bit.

Inverting ops XOR against ``(1 << n_patterns) - 1``, so no lane ever holds a
bit beyond the pattern count.  The fault-grading kernels in
:mod:`repro.engine.fault` evaluate the good machine with the same
:func:`evaluate_lanes`.

Toggle consumers (the power model's switching fold,
:meth:`PackedLogicSimulator.gate_activity`) never see a value table:
:meth:`PackedLogicSimulator.fold_flips` evaluates the program a node block
at a time (:func:`evaluate_lanes` with a consumer), writes each block's
lanes into a packed ``uint8`` table (:func:`lanes_to_bytes`), forms their
boundary flips with a byte-wise shift-xor (:func:`boundary_flips`) and
drops every lane after its last reader (:func:`release_schedule`).  Several
pattern sets share one pass by lying side by side in each lane
(:func:`stack_lanes`).  Only the lanes still to be read are alive at once:
on b18, at most ~10% of them.  The node tuples are built one block at a
time from the program's arrays too, so a toggle consumer never builds the
whole program's tuples (:attr:`CompiledCircuit.node_prog`), which only the
full-table path, PODEM and fault grading read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.cubes.bits import X
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
    compiled_program,
)


def check_pattern_matrix(patterns: np.ndarray, n_pins: int) -> np.ndarray:
    """Validate and normalise a pattern matrix to ``(n_patterns, n_pins)`` bool.

    The single validation authority for two-valued simulation, so every
    simulator and the power layer fail alike.

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
#: Nodes :func:`evaluate_lanes` evaluates between two calls of its consumer.
_NODE_BLOCK = 512


def stack_lanes(matrices: Iterable[np.ndarray]) -> Tuple[List[int], int]:
    """Lay several pattern matrices side by side in one lane per pin.

    Set ``k``'s patterns occupy bits ``offset_k .. offset_k + n_k - 1``,
    where ``offset_k`` is the pattern count of the sets before it: each
    set's :func:`pack_lanes` is shifted into place and or-ed in.  Returns
    the lanes and the total pattern count.
    """
    lanes: List[int] = []
    width = 0
    for matrix in matrices:
        part = pack_lanes(matrix)
        lanes = [lane | (bits << width) for lane, bits in zip(lanes, part)] if width else part
        width += matrix.shape[0]
    return lanes, width


def release_schedule(program: CompiledCircuit, block: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows whose lanes may be dropped after each node block.

    Returns ``(rows, bounds)``: ``rows[bounds[0]:bounds[1]]`` are the
    test-pin rows no node reads, and ``rows[bounds[b + 1]:bounds[b + 2]]``
    the rows whose last reader is a node of block ``b`` (nodes
    ``b * block .. (b + 1) * block - 1``), or that block writes and no node
    reads.  Node ``p`` writes row ``n_inputs + p``, so a row is always
    written before (or in) the block that releases it.
    """
    n_nodes = program.n_nodes
    last = np.maximum(program.last_reader, np.arange(-program.n_inputs, n_nodes, dtype=np.int32))
    last //= block
    last += 1
    rows = np.argsort(last, kind="stable")
    n_blocks = -(-n_nodes // block)
    return rows, np.searchsorted(last[rows], np.arange(n_blocks + 2))


def _evaluate_nodes(
    values: List[Optional[int]], nodes: Sequence[Tuple[int, int, Tuple[int, ...]]], mask: int
) -> None:
    """Evaluate ``nodes`` in order, writing each output lane into ``values``."""
    for op, out, src in nodes:
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


def evaluate_lanes(
    program: CompiledCircuit,
    input_lanes: Sequence[int],
    mask: int,
    consumer: Optional[Callable[[int, List[int]], None]] = None,
) -> Optional[List[int]]:
    """Evaluate the compiled program over big-int lanes.

    Args:
        program: compiled circuit.
        input_lanes: one lane per test pin (rows ``0..n_inputs-1``).
        mask: ``(1 << n_patterns) - 1``; inverting ops XOR against it so no
            garbage bits ever exist beyond the pattern count.
        consumer: when given, the lanes are streamed instead of returned:
            ``consumer(first_row, lanes)`` first receives the test-pin rows,
            then, after each block of ``_NODE_BLOCK`` nodes, the rows that
            block wrote — every row exactly once, in row order.  After each
            call the lanes whose last reader has run are dropped (see
            :func:`release_schedule`), so only the rows still to be read stay
            alive.  Each block's node tuples are built from the program's
            arrays (:meth:`CompiledCircuit.node_block`) and dropped with it;
            without a consumer the cached tuples of every node
            (:attr:`CompiledCircuit.node_prog`) are walked.

    Returns:
        One lane per value-table row, in row order; ``None`` with a consumer.
    """
    values: List[Optional[int]] = [0] * program.n_nets
    n_inputs = program.n_inputs
    values[:n_inputs] = list(input_lanes)
    if consumer is None:
        _evaluate_nodes(values, program.node_prog, mask)
        return values
    released, bounds = release_schedule(program, _NODE_BLOCK)
    consumer(0, values[:n_inputs])
    for row in released[bounds[0] : bounds[1]].tolist():
        values[row] = None
    n_nodes = program.n_nodes
    for block, lo in enumerate(range(0, n_nodes, _NODE_BLOCK), 1):
        hi = min(lo + _NODE_BLOCK, n_nodes)
        _evaluate_nodes(values, program.node_block(lo, hi), mask)
        consumer(n_inputs + lo, values[n_inputs + lo : n_inputs + hi])
        for row in released[bounds[block] : bounds[block + 1]].tolist():
            values[row] = None
    return None


class PackedLogicSimulator:
    """Bit-parallel two-valued simulator.

    Args:
        circuit: circuit to simulate; the simulator runs its process-wide
            compiled program (:func:`~repro.engine.compile.compiled_program`).
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.program = compiled_program(circuit)

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

    # -- value tables ------------------------------------------------------
    def simulate(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Evaluate every net for every pattern (net name -> bool column).

        The returned columns are row views of one dense matrix (already
        contiguous); treat them as read-only.
        """
        values = self._value_matrix(patterns)
        return {net: values[row] for row, net in enumerate(self.program.net_names)}

    def observe_outputs(self, patterns: np.ndarray) -> np.ndarray:
        """Observable responses, one row per pattern.

        The columns follow :attr:`Circuit.combinational_outputs` (primary
        outputs, then flip-flop data inputs).
        """
        values = self._value_matrix(patterns)
        return np.ascontiguousarray(values[self.program.output_rows].T)

    def gate_activity(self, patterns: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-net toggle indicators between consecutive patterns.

        Unpacked from the streamed packed boundary flips (:meth:`fold_flips`),
        so no value table is built.
        """
        matrix = check_pattern_matrix(patterns, self.program.n_inputs)
        blocks: List[np.ndarray] = []
        self.fold_flips([matrix], lambda first_row, flips: blocks.append(flips))
        n_boundaries = max(matrix.shape[0] - 1, 0)
        bits = np.unpackbits(np.concatenate(blocks), axis=1, count=n_boundaries, bitorder="little")
        toggles = bits.view(bool)
        return {net: toggles[row] for row, net in enumerate(self.program.net_names)}

    # -- engine-native fast path -------------------------------------------
    def net_value_matrix(self, patterns: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """All net values as one matrix (``(names, (n_nets, n_patterns))``).

        The row order is the value-table order (test pins, then
        topological order), the order the switching-activity model's
        capacitances follow.
        """
        return list(self.program.net_names), self._value_matrix(patterns)

    def fold_flips(
        self, matrices: Sequence[np.ndarray], fold: Callable[[int, np.ndarray], None]
    ) -> None:
        """Stream the packed boundary flips of pattern sets evaluated in one pass.

        The sets are laid side by side (:func:`stack_lanes`) and the program
        is evaluated once over all of them, so the flips have
        ``sum(n_k) - 1`` boundary columns: set ``k``'s own boundaries start
        at column ``offset_k``, and the seam column between the last pattern
        of one set and the first of the next belongs to neither.
        ``fold(first_row, flips)`` receives every row once, in row order
        (the rows of :meth:`net_value_matrix`), one node block at a time
        (:func:`evaluate_lanes`), in the layout of :func:`boundary_flips`.
        Only the block's bytes and the lanes still to be read are alive at
        once: no value table, and no byte or flips table of every net.
        """
        n_inputs = self.program.n_inputs
        lanes, width = stack_lanes(check_pattern_matrix(matrix, n_inputs) for matrix in matrices)

        def consume(first_row: int, block: List[int]) -> None:
            fold(first_row, boundary_flips(lanes_to_bytes(block, width), width))

        evaluate_lanes(self.program, lanes, (1 << width) - 1, consume)
