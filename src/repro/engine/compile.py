"""Circuit compilation: from a :class:`Circuit` to a flat array program.

Walking gate objects and per-net dictionaries on every evaluation is slow.
This module compiles a validated circuit **once** into a flat,
levelised program over integer *rows*, reading the circuit's integer columns
(:meth:`Circuit.columns`) and its flat fan-in arrays
(:meth:`Circuit.fanin_arrays`) directly — a row is a permutation of a net
id, so no gate object or name lookup is involved:

* every net gets a row in a dense value table — test pins (primary inputs
  followed by flip-flop outputs) occupy rows ``0 .. n_inputs-1``, then every
  combinational gate output in :meth:`Circuit.topological_order` (Kahn's
  algorithm with a name-sorted ready queue).  This row order is a contract:
  it fixes the compiled PODEM's tie-breaks, so compiling in generation order
  instead would change reported numbers;
* every evaluated gate becomes a *node*: an opcode (``ops``, int8) and a
  run of fan-in rows (``fanin_rows[node_offsets[p]:node_offsets[p + 1]]``,
  int32); node ``p`` writes row ``n_inputs + p``;
* every row gets the position of the last node reading it
  (``last_reader``), from which :func:`repro.engine.packed.release_schedule`
  tells when a lane can be dropped.

All of it is array passes: a gather of the netlist's flat fan-in ids
(:meth:`Circuit.fanin_arrays`) in topological order, mapped through a net
id -> row table.  The lane evaluator reads Python ``(opcode, output row,
fan-in rows)`` tuples instead (scalar indexing of python lists beats numpy
scalar indexing by ~10x); :meth:`CompiledCircuit.node_block` builds them
for a node range.  A streamed evaluation (power grading, toggle activity)
builds them one node block at a time and drops each block after use, so on
b18 the program holds ~2 MB of arrays instead of ~13 MB of tuples.

The structures only full-table simulation, PODEM and fault simulation read
— the tuples of every node (``node_prog``), the name -> row map, each
node's logic level (the ternary PODEM engine ranks its D-frontier by it),
the row -> driving node map, the fan-out map (``reader_lists``: row -> node
positions reading it, the basis of the cone-restricted fault simulator) and
the set of observable rows — are derived on first access and cached, so a
run that only grades power never builds them.

Nothing here evaluates anything: the compiled program is consumed by
:mod:`repro.engine.packed` (bit-parallel logic simulation),
:mod:`repro.engine.fault` (fault simulation) and :mod:`repro.engine.ternary`
(compiled PODEM).  The design follows the
compile-once / run-tight-loops idiom of optimisation modelling libraries:
simulation never touches gate objects or name dictionaries again.
:func:`compiled_program` is the process-wide compile-once cache every
simulator, PODEM engine and power estimator reads.
"""

from __future__ import annotations

import weakref
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
        ops: int8, node -> opcode, in topological order.
        fanin_rows: int32, the fan-in rows of every node, node after node.
        node_offsets: int32, ``n_nodes + 1`` bounds: node ``p`` reads
            ``fanin_rows[node_offsets[p]:node_offsets[p + 1]]``.

    The cached properties below (``node_prog``, ``net_index``,
    ``node_levels``, ``out_node``, ``reader_lists``, ``_observable_set``)
    serve full-table simulation, PODEM and fault simulation; each is built
    on first access.
    """

    name: str
    net_names: List[str]
    n_inputs: int
    output_rows: np.ndarray
    last_reader: np.ndarray
    ops: np.ndarray
    fanin_rows: np.ndarray
    node_offsets: np.ndarray
    _cone_cache: Dict[int, Cone] = field(default_factory=dict)

    @property
    def n_nets(self) -> int:
        """Total number of value-table rows."""
        return len(self.net_names)

    @property
    def n_nodes(self) -> int:
        """Number of evaluated (combinational) nodes."""
        return len(self.ops)

    def row_of(self, net: str) -> Optional[int]:
        """Row of ``net``, or ``None`` for unknown nets."""
        return self.net_index.get(net)

    def node_block(self, lo: int, hi: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(opcode, output row, fan-in rows)`` of nodes ``lo .. hi - 1``, in order."""
        first = int(self.node_offsets[lo])
        bounds = (self.node_offsets[lo : hi + 1] - first).tolist()
        sources = self.fanin_rows[first : first + bounds[-1]].tolist()
        return list(
            zip(
                self.ops[lo:hi].tolist(),
                range(self.n_inputs + lo, self.n_inputs + hi),
                [tuple(sources[a:b]) for a, b in zip(bounds, bounds[1:])],
            )
        )

    # -- lazily derived structures (full tables, PODEM, fault simulation) --
    @cached_property
    def node_prog(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """:meth:`node_block` of every node.

        Built on first access, and kept, by the readers that walk the whole
        program again and again or index it at random: full-table lane
        evaluation, PODEM, fault grading and :meth:`cone`.  A streamed
        evaluation builds one block at a time instead.
        """
        return self.node_block(0, self.n_nodes)

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

    The program is built from :meth:`Circuit.columns`.  The row order is
    test pins first, then :meth:`Circuit.topological_order` (the order of
    the reference simulator in ``tests/reference_engines.py``, too); see
    the module docstring for why no other order will do.
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

    return CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        n_inputs=n_inputs,
        output_rows=row_of[columns.observed],
        last_reader=last_reader,
        ops=ops,
        fanin_rows=fanin_rows,
        node_offsets=node_offsets,
    )


_PROGRAMS: "weakref.WeakKeyDictionary[Circuit, Tuple[object, CompiledCircuit]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_program(circuit: Circuit) -> CompiledCircuit:
    """The process-wide compiled program of ``circuit``, compiled once.

    Every simulator, the PODEM engine and the power estimator of a circuit
    share it, and with it the fault-cone cache.  Circuits are held weakly,
    and the entry is checked against :meth:`Circuit.structure_token`, so
    mutating a netlist after simulating it recompiles it instead of serving
    a stale program.
    """
    entry = _PROGRAMS.get(circuit)
    if entry is not None:
        token, program = entry
        if circuit.structure_token() is token:
            return program
    program = compile_circuit(circuit)
    _PROGRAMS[circuit] = (circuit.structure_token(), program)
    return program
