"""Circuit compilation: from a :class:`Circuit` to a flat array program.

The naive simulators walk gate objects and per-net dictionaries on every
evaluation.  This module compiles a validated circuit **once** into a flat,
levelised program over integer *rows*, reading the circuit's integer columns
(:meth:`Circuit.columns`) directly — a row is a permutation of a net id, so
no gate object or name lookup is involved:

* every net gets a row in a dense value table — test pins (primary inputs
  followed by flip-flop outputs) occupy rows ``0 .. n_inputs-1``, then every
  combinational gate output in :meth:`Circuit.topological_order` (Kahn's
  algorithm with a name-sorted ready queue).  This row order is a contract:
  it fixes the float summation order of the power layer and the compiled
  PODEM's tie-breaks, so compiling in generation order instead would change
  reported numbers;
* every evaluated gate becomes a *node*: an integer opcode, a CSR-style
  fan-in slice (``fanin_ptr`` / ``fanin_idx``) of source rows, and the row it
  writes;
* nodes carry their logic level (the ternary PODEM engine ranks its
  D-frontier by it);
* a fan-out map (``reader_lists``: row -> node positions reading it) records
  which nodes read every row — the basis for the cone-restricted fault
  simulator.

Nothing here evaluates anything: the compiled program is consumed by
:mod:`repro.engine.packed` (bit-parallel logic simulation),
:mod:`repro.engine.fault` (fault simulation) and :mod:`repro.engine.ternary`
(compiled PODEM).  The design follows the
compile-once / run-tight-loops idiom of optimisation modelling libraries:
simulation never touches gate objects or name dictionaries again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

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
# Keyed by member name: a str key hashes in C, a GateType key through
# Enum.__hash__, once per node of a full-scale netlist.
_OPCODE_OF_NAME: Dict[str, int] = {kind.name: op for kind, op in _OPCODE_OF.items()}

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
        net_index: net name -> row index.
        n_inputs: number of test-pin rows (they are rows ``0..n_inputs-1``).
        node_ops / node_out / node_level: per-node opcode, output row, level
            — the flat-array form of the program (compact and picklable),
            derived from the python lists below.
        fanin_ptr / fanin_idx: CSR fan-in rows per node (same array form).
        output_rows: rows of the observable outputs, in
            :attr:`Circuit.combinational_outputs` order (may repeat).
    """

    name: str
    net_names: List[str]
    net_index: Dict[str, int]
    n_inputs: int
    node_ops: np.ndarray
    node_out: np.ndarray
    node_level: np.ndarray
    fanin_ptr: np.ndarray
    fanin_idx: np.ndarray
    output_rows: np.ndarray
    # The plain-python form of the program, from which compile_circuit
    # derives the arrays above; the hot loops use it directly: the
    # lane evaluator iterates ``node_prog`` (scalar indexing of python lists
    # beats numpy scalar indexing by ~10x), the cone BFS walks
    # ``reader_lists`` (row -> node positions reading that row), and the
    # ternary PODEM engine uses ``node_levels`` (per-node logic level, for
    # D-frontier ranking) and ``out_node`` (row -> driving node position,
    # ``-1`` for test-pin rows, for objective backtracing).
    node_prog: List[Tuple[int, int, Tuple[int, ...]]] = field(default_factory=list)
    reader_lists: List[List[int]] = field(default_factory=list)
    node_levels: List[int] = field(default_factory=list)
    out_node: List[int] = field(default_factory=list)
    _observable_set: frozenset = frozenset()
    _cone_cache: Dict[int, Cone] = field(default_factory=dict)

    @property
    def n_nets(self) -> int:
        """Total number of value-table rows."""
        return len(self.net_names)

    @property
    def n_nodes(self) -> int:
        """Number of evaluated (combinational) nodes."""
        return int(self.node_ops.shape[0])

    def row_of(self, net: str) -> Optional[int]:
        """Row of ``net``, or ``None`` for unknown nets."""
        return self.net_index.get(net)

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
    names, gate_net = columns.net_names, columns.gate_net
    pins, order = columns.test_pins, columns.order
    n_inputs = len(pins)
    n_rows = n_inputs + len(order)

    # Net id -> row.  Every id a node reads or the outputs observe is a test
    # pin or a combinational gate output, so each lookup hits a row.  Rows
    # and node positions each come from one list of int objects, which every
    # structure below shares instead of boxing its own copies.
    rows = list(range(n_rows))
    positions = list(range(len(order)))
    row_of = [-1] * len(names)
    for net, row in zip(pins, rows):
        row_of[net] = row
    for index, row in zip(order, rows[n_inputs:]):
        row_of[gate_net[index]] = row
    net_names: List[str] = [names[net] for net in pins]
    net_names.extend([names[gate_net[index]] for index in order])
    net_index: Dict[str, int] = dict(zip(net_names, rows))

    # The python lists are the source: they are built in one pass over the
    # gates, and the NumPy arrays are derived from them, so the two program
    # representations cannot drift apart.  A node's level is
    # ``1 + max(level of its fan-in rows)`` with test pins at level 0, the
    # definition of :meth:`Circuit.levelize`.
    node_prog: List[Tuple[int, int, Tuple[int, ...]]] = []
    node_levels: List[int] = []
    row_level = [0] * n_rows
    out_node = [-1] * n_inputs + positions
    # Fan-out: row -> node positions reading it (combinational readers only;
    # flip-flops are not nodes, so cone propagation naturally stops there).
    reader_lists: List[List[int]] = [[] for _ in range(n_rows)]
    fanin_ends = [0]
    fanin_rows: List[int] = []
    gate_type, gate_fanin = columns.gate_type, columns.gate_fanin
    opcode_of = _OPCODE_OF_NAME.get
    row_of_net = row_of.__getitem__
    level_of = row_level.__getitem__
    for pos, index, out in zip(positions, order, rows[n_inputs:]):
        op = opcode_of(gate_type[index]._name_)
        if op is None:  # pragma: no cover - Circuit.validate forbids this
            raise ValueError(f"cannot compile gate type {gate_type[index]}")
        src = tuple(map(row_of_net, gate_fanin[index]))
        level = 1 + max(map(level_of, src), default=0)
        row_level[out] = level
        node_prog.append((op, out, src))
        node_levels.append(level)
        for row in src:
            reader_lists[row].append(pos)
        fanin_rows.extend(src)
        fanin_ends.append(len(fanin_rows))

    output_rows = np.asarray([row_of[net] for net in columns.observed], dtype=np.int32)
    return CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        net_index=net_index,
        n_inputs=n_inputs,
        node_ops=np.array([node[0] for node in node_prog], dtype=np.int32),
        node_out=np.array([node[1] for node in node_prog], dtype=np.int32),
        node_level=np.array(node_levels, dtype=np.int32),
        fanin_ptr=np.array(fanin_ends, dtype=np.int32),
        fanin_idx=np.array(fanin_rows, dtype=np.int32),
        output_rows=output_rows,
        node_prog=node_prog,
        reader_lists=reader_lists,
        node_levels=node_levels,
        out_node=out_node,
        _observable_set=frozenset(int(r) for r in output_rows),
    )
