"""Circuit compilation: from a :class:`Circuit` to a flat array program.

The naive simulators walk gate objects and per-net dictionaries on every
evaluation.  This module compiles a validated circuit **once** into a flat,
levelised program over integer *rows*, reading the circuit's integer columns
(:meth:`Circuit.columns`) and its flat fan-in arrays
(:meth:`Circuit.fanin_arrays`) directly — a row is a permutation of a net
id, so no gate object or name lookup is involved:

* every net gets a row in a dense value table — test pins (primary inputs
  followed by flip-flop outputs) occupy rows ``0 .. n_inputs-1``, then every
  combinational gate output in :meth:`Circuit.topological_order` (Kahn's
  algorithm with a name-sorted ready queue).  This row order is a contract:
  it fixes the float summation order of the power layer and the compiled
  PODEM's tie-breaks, so compiling in generation order instead would change
  reported numbers;
* every evaluated gate becomes a *node* ``(opcode, output row, fan-in
  rows)`` of ``node_prog``; node ``p`` writes row ``n_inputs + p``;
* every row gets the position of the last node reading it
  (``last_reader``), from which :func:`repro.engine.packed.release_schedule`
  tells when a lane can be dropped.

The row map, the opcodes, the fan-in rows and the last readers are array
passes: a gather of the netlist's flat fan-in ids
(:meth:`Circuit.fanin_arrays`) in topological order, mapped through a net
id -> row table.  Only the ``node_prog`` tuples are built in Python, from
slices of those rows.

That is all logic simulation reads, so it is all :func:`compile_circuit`
builds.  The structures only PODEM and fault simulation read — the name ->
row map, each node's logic level (the ternary PODEM engine ranks its
D-frontier by it), the row -> driving node map, the fan-out map
(``reader_lists``: row -> node positions reading it, the basis of the
cone-restricted fault simulator) and the set of observable rows — are
derived from ``node_prog`` on first access and cached, so a run that only
simulates and grades power never builds them.

Nothing here evaluates anything: the compiled program is consumed by
:mod:`repro.engine.packed` (bit-parallel logic simulation),
:mod:`repro.engine.fault` (fault simulation) and :mod:`repro.engine.ternary`
(compiled PODEM).  The design follows the
compile-once / run-tight-loops idiom of optimisation modelling libraries:
simulation never touches gate objects or name dictionaries again.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import GATE_TYPES, Circuit

# Integer opcodes of the compiled program.  The order groups the "natural"
# function with its inverted twin so ``op | 1`` tests for inversion cheaply.
OP_BUF = 0
OP_NOT = 1
OP_AND = 2
OP_NAND = 3
OP_OR = 4
OP_NOR = 5
OP_XOR = 6
OP_XNOR = 7
OP_CONST0 = 8
OP_CONST1 = 9

_OPCODE_OF: Dict[GateType, int] = {
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
}
#: Opcode per gate-type code of :attr:`FaninArrays.kinds` (``-1``: no opcode).
_OPCODE_OF_CODE = np.array([_OPCODE_OF.get(kind, -1) for kind in GATE_TYPES], dtype=np.int8)


@dataclass(frozen=True)
class Cone:
    """The downstream combinational cone of one fault site.

    ``positions`` indexes :attr:`CompiledCircuit.node_prog` in topological
    order (node positions are topological by construction, so a plain sort
    suffices); ``detect_rows`` are the observable rows whose faulty value
    must be compared against the good machine (cone outputs that are
    observable).  ``site_observable`` flags whether the fault site itself is
    observable.
    """

    positions: Tuple[int, ...]
    detect_rows: Tuple[int, ...]
    site_observable: bool


@dataclass
class CompiledCircuit:
    """A circuit lowered to flat arrays (see the module docstring).

    Attributes:
        name: source circuit name.
        net_names: row index -> net name (test pins first, then topo order).
        n_inputs: number of test-pin rows (they are rows ``0..n_inputs-1``).
        output_rows: rows of the observable outputs, in
            :attr:`Circuit.combinational_outputs` order (may repeat).
        last_reader: int32, row -> position of the last node reading it,
            ``-1`` for a row no node reads.
        node_prog: per node ``(opcode, output row, fan-in rows)`` in
            topological order.  The lane evaluator iterates it directly
            (scalar indexing of python lists beats numpy scalar indexing by
            ~10x).

    The cached properties below (``net_index``, ``node_levels``,
    ``out_node``, ``reader_lists``, ``_observable_set``) serve PODEM and
    fault simulation; each is built from ``node_prog`` on first access.
    """

    name: str
    net_names: List[str]
    n_inputs: int
    output_rows: np.ndarray
    last_reader: np.ndarray
    node_prog: List[Tuple[int, int, Tuple[int, ...]]] = field(default_factory=list)
    _cone_cache: Dict[int, Cone] = field(default_factory=dict)

    @property
    def n_nets(self) -> int:
        """Total number of value-table rows."""
        return len(self.net_names)

    @property
    def n_nodes(self) -> int:
        """Number of evaluated (combinational) nodes."""
        return len(self.node_prog)

    def row_of(self, net: str) -> Optional[int]:
        """Row of ``net``, or ``None`` for unknown nets."""
        return self.net_index.get(net)

    # -- lazily derived structures (PODEM and fault simulation) -----------
    @cached_property
    def net_index(self) -> Dict[str, int]:
        """Net name -> row index."""
        return {net: row for row, net in enumerate(self.net_names)}

    @cached_property
    def node_levels(self) -> List[int]:
        """Per-node logic level: ``1 + max(level of its fan-in rows)``.

        Test pins sit at level 0, the definition of :meth:`Circuit.levelize`;
        the ternary PODEM engine ranks its D-frontier by it.
        """
        row_level = [0] * self.n_nets
        level_of = row_level.__getitem__
        levels: List[int] = []
        for _, out, src in self.node_prog:
            level = 1 + max(map(level_of, src), default=0)
            row_level[out] = level
            levels.append(level)
        return levels

    @cached_property
    def out_node(self) -> List[int]:
        """Row -> driving node position (``-1`` for test-pin rows).

        The ternary PODEM engine backtraces objectives through it.
        """
        return [-1] * self.n_inputs + list(range(self.n_nodes))

    @cached_property
    def reader_lists(self) -> List[List[int]]:
        """Fan-out: row -> positions of the nodes reading it.

        Combinational readers only: flip-flops are not nodes, so cone
        propagation naturally stops there.
        """
        readers: List[List[int]] = [[] for _ in range(self.n_nets)]
        for pos, (_, _, src) in enumerate(self.node_prog):
            for row in src:
                readers[row].append(pos)
        return readers

    @cached_property
    def _observable_set(self) -> frozenset:
        """The observable rows (:attr:`output_rows` as a set)."""
        return frozenset(self.output_rows.tolist())

    # -- cones ------------------------------------------------------------
    def cone(self, row: int) -> Cone:
        """Downstream cone of the net at ``row`` (cached per compiled circuit).

        The cone holds every combinational node transitively reading ``row``
        (propagation stops at flip-flops, whose data-input nets are already
        observable rows), in topological order.
        """
        cached = self._cone_cache.get(row)
        if cached is not None:
            return cached
        readers = self.reader_lists
        node_prog = self.node_prog
        seen: set = set()
        seen_add = seen.add
        stack = readers[row][:]
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen_add(pos)
            stack.extend(readers[node_prog[pos][1]])
        positions = tuple(sorted(seen))
        observable = self._observable_set
        detect_rows = tuple(
            out
            for out in (node_prog[pos][1] for pos in positions)
            if out in observable
        )
        cone = Cone(
            positions=positions,
            detect_rows=detect_rows,
            site_observable=row in observable,
        )
        self._cone_cache[row] = cone
        return cone


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile a validated circuit into a :class:`CompiledCircuit`.

    The program is built from :meth:`Circuit.columns`.  The row order
    matches :class:`~repro.circuit.simulator.LogicSimulator` exactly — test
    pins first, then :meth:`Circuit.topological_order` — so value tables
    produced from the compiled program are row-compatible with the naive
    simulator's net dictionary (same nets, same order); see the module
    docstring for why no other order will do.
    """
    columns = circuit.columns()
    nets, offsets, kinds = circuit.fanin_arrays()
    names, pins, order = columns.net_names, columns.test_pins, columns.order
    n_inputs, n_nodes = len(pins), len(order)
    n_rows = n_inputs + n_nodes

    # Net id -> row.  Every id a node reads or the outputs observe is a test
    # pin or a combinational gate output, so each lookup hits a row.
    gate_nets = np.array(columns.gate_net, dtype=np.int32)[order]
    row_of = np.full(len(names), -1, dtype=np.int32)
    row_of[pins] = np.arange(n_inputs, dtype=np.int32)
    row_of[gate_nets] = np.arange(n_inputs, n_rows, dtype=np.int32)
    net_names: List[str] = [names[net] for net in pins]
    net_names.extend(map(names.__getitem__, array("i", gate_nets.tobytes())))

    ops = _OPCODE_OF_CODE[kinds[order]]
    if (ops < 0).any():  # pragma: no cover - only INPUT-type gates lack one; validate rejects them
        raise ValueError(f"cannot compile gate type {GATE_TYPES[kinds[order][ops < 0][0]]}")
    # The fan-in ids of the nodes, node after node, as rows.
    starts = offsets[order]
    lengths = offsets[order + 1] - starts
    node_offsets = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(lengths, dtype=np.int32, out=node_offsets[1:])
    take = np.repeat(starts - node_offsets[:-1], lengths)
    take += np.arange(take.size, dtype=np.int32)
    fanin_rows = row_of[nets[take]]
    del take
    last_reader = np.full(n_rows, -1, dtype=np.int32)
    np.maximum.at(last_reader, fanin_rows, np.repeat(np.arange(n_nodes, dtype=np.int32), lengths))

    # The rows come from one list of int objects, which the output rows and
    # fan-in tuples share instead of boxing their own copies.  Iterating an
    # ``array`` boxes one int at a time; ``tolist()`` would box them all at
    # once, a transient the size of the fan-in list.
    rows = list(range(n_rows))
    sources = list(map(rows.__getitem__, array("i", fanin_rows.tobytes())))
    del fanin_rows
    bounds = array("i", node_offsets.tobytes())
    node_prog = list(
        zip(
            ops.tolist(),
            rows[n_inputs:],
            [tuple(sources[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        )
    )

    return CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        n_inputs=n_inputs,
        output_rows=row_of[columns.observed],
        last_reader=last_reader,
        node_prog=node_prog,
    )
