"""Circuit compilation: from a :class:`Circuit` to a flat array program.

The naive simulators walk gate objects and per-net dictionaries on every
evaluation.  This module compiles a validated circuit **once** into a flat,
levelised program over integer *rows*:

* every net gets a row in a dense value table — test pins (primary inputs
  followed by flip-flop outputs) occupy rows ``0 .. n_inputs-1``, then every
  combinational gate output in topological order;
* every evaluated gate becomes a *node*: an integer opcode, a CSR-style
  fan-in slice (``fanin_ptr`` / ``fanin_idx``) of source rows, and the row it
  writes;
* nodes carry their logic level, and nodes of the same ``(level, opcode,
  arity)`` are pre-grouped so a vectorised evaluator can process a whole
  group with one NumPy call;
* a fan-out map (``reader_lists``: row -> node positions reading it) records
  which nodes read every row — the basis for the cone-restricted fault
  simulator.

Nothing here evaluates anything: the compiled program is consumed by
:mod:`repro.engine.packed` (bit-parallel logic simulation) and
:mod:`repro.engine.fault` (fault simulation).  The design follows the
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

#: Opcodes whose result is the complement of the accumulated reduction.
INVERTING_OPS = frozenset((OP_NOT, OP_NAND, OP_NOR, OP_XNOR))


@dataclass(frozen=True)
class LevelGroup:
    """Nodes of one ``(level, opcode, arity)`` class, for vectorised evaluation.

    Attributes:
        level: logic level shared by every node in the group.
        op: shared opcode.
        out_rows: value-table rows the group writes, shape ``(n,)``.
        in_rows: source rows, shape ``(n, arity)`` (empty for constants).
    """

    level: int
    op: int
    out_rows: np.ndarray
    in_rows: np.ndarray


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
            — the canonical flat-array form of the program (compact and
            picklable).
        fanin_ptr / fanin_idx: CSR fan-in rows per node (same canonical form).
        output_rows: rows of the observable outputs, in
            :attr:`Circuit.combinational_outputs` order (may repeat).
        groups: level/op/arity node groups in evaluation order.
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
    groups: List[LevelGroup]
    # Plain-python mirrors of the arrays above, used by the hot loops: the
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

    The compilation order matches :class:`~repro.circuit.simulator.LogicSimulator`
    exactly — test pins first, then :meth:`Circuit.topological_order` — so
    value tables produced from the compiled program are row-compatible with
    the naive simulator's net dictionary (same nets, same order).
    """
    circuit.validate()
    inputs = circuit.combinational_inputs
    order = circuit.topological_order()
    levels = circuit.levelize()

    net_names: List[str] = list(inputs) + list(order)
    net_index: Dict[str, int] = {net: row for row, net in enumerate(net_names)}
    n_inputs = len(inputs)

    n_nodes = len(order)
    node_ops = np.zeros(n_nodes, dtype=np.int32)
    node_out = np.zeros(n_nodes, dtype=np.int32)
    node_level = np.zeros(n_nodes, dtype=np.int32)
    fanin_ptr = np.zeros(n_nodes + 1, dtype=np.int32)
    fanin_rows: List[int] = []

    for pos, name in enumerate(order):
        gate = circuit.get_gate(name)
        op = _OPCODE_OF.get(gate.gate_type)
        if op is None:  # pragma: no cover - Circuit.validate forbids this
            raise ValueError(f"cannot compile gate type {gate.gate_type}")
        src = tuple(net_index[net] for net in gate.inputs)
        node_ops[pos] = op
        node_out[pos] = net_index[name]
        node_level[pos] = levels.get(name, 0)
        fanin_ptr[pos + 1] = fanin_ptr[pos] + len(src)
        fanin_rows.extend(src)

    fanin_idx = np.asarray(fanin_rows, dtype=np.int32)
    # The python mirror is *derived* from the canonical arrays so the two
    # program representations cannot drift apart.
    node_prog: List[Tuple[int, int, Tuple[int, ...]]] = [
        (
            int(node_ops[pos]),
            int(node_out[pos]),
            tuple(int(row) for row in fanin_idx[fanin_ptr[pos] : fanin_ptr[pos + 1]]),
        )
        for pos in range(n_nodes)
    ]
    output_rows = np.asarray(
        [net_index[net] for net in circuit.combinational_outputs], dtype=np.int32
    )
    node_levels = [int(node_level[pos]) for pos in range(n_nodes)]
    out_node = [-1] * len(net_names)
    for pos in range(n_nodes):
        out_node[int(node_out[pos])] = pos

    # Level/op/arity groups, in level order (ties broken deterministically).
    buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for pos in range(n_nodes):
        key = (int(node_level[pos]), int(node_ops[pos]), len(node_prog[pos][2]))
        buckets.setdefault(key, []).append(pos)
    groups: List[LevelGroup] = []
    for (level, op, arity) in sorted(buckets):
        positions = buckets[(level, op, arity)]
        out_rows = node_out[positions]
        if arity:
            in_rows = np.asarray(
                [node_prog[pos][2] for pos in positions], dtype=np.int32
            )
        else:
            in_rows = np.zeros((len(positions), 0), dtype=np.int32)
        groups.append(LevelGroup(level=level, op=op, out_rows=out_rows, in_rows=in_rows))

    # Fan-out: row -> node positions reading it (combinational readers only;
    # flip-flops are not nodes, so cone propagation naturally stops there).
    reader_lists: List[List[int]] = [[] for _ in net_names]
    for pos, (_, _, src) in enumerate(node_prog):
        for row in src:
            reader_lists[row].append(pos)

    return CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        net_index=net_index,
        n_inputs=n_inputs,
        node_ops=node_ops,
        node_out=node_out,
        node_level=node_level,
        fanin_ptr=fanin_ptr,
        fanin_idx=fanin_idx,
        output_rows=output_rows,
        groups=groups,
        node_prog=node_prog,
        reader_lists=reader_lists,
        node_levels=node_levels,
        out_node=out_node,
        _observable_set=frozenset(int(r) for r in output_rows),
    )
