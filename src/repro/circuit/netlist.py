"""Netlist container: integer columns, nets and the full-scan combinational view.

A :class:`Circuit` stores its netlist as columns over integer net ids.  A net
gets its id on first mention — as a primary input, a primary output, a gate
output or a gate fan-in — and keeps the name of its driver (a primary input
or a gate output), which matches the ``.bench`` convention.  Because ids are
handed out on first mention, a hand-written or ``.bench`` netlist may read a
net before the gate driving it is added; :meth:`Circuit.validate` checks that
every net read is driven in the end.

Each gate is one entry of three per-gate columns, in insertion order: the id
of the net it drives (whose name is the gate's name), its :class:`GateType`
and a tuple of fan-in net ids in pin order.  Both construction paths write
these columns: :meth:`Circuit.add_gate` one gate at a time, and
:meth:`Circuit.from_columns` in bulk, which runs the same checks once over
the ids.  Structural analyses — validation, topological order, levels,
fan-out, the structure digest — and :func:`repro.engine.compile.compile_circuit`
work on the ids.  :class:`Gate` objects are the name-level view for the
consumers that walk gates by name (``.bench`` export, the dict PODEM, the
naive simulators); they are created on first request and cached.

Sequential elements are D flip-flops; in the full-scan methodology the paper
assumes, every flip-flop is a scan cell, so the *combinational view* of the
circuit treats flip-flop outputs as pseudo-primary-inputs and flip-flop data
inputs as pseudo-primary-outputs.  Test cubes are defined over
``primary_inputs + flip-flop outputs`` in that order, which is the pin
ordering used throughout the experiments.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.circuit.gates import GateType


@dataclass(frozen=True)
class Gate:
    """A single gate instance, by net names.

    Attributes:
        output: name of the net this gate drives (also the gate's identifier).
        gate_type: the logic primitive.
        inputs: names of the driven-by nets, in pin order.
    """

    output: str
    gate_type: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.gate_type.arity_ok(len(self.inputs)):
            raise ValueError(_arity_message(self.output, self.gate_type, len(self.inputs)))


def _arity_message(output: str, gate_type: GateType, n_inputs: int) -> str:
    return f"gate {output!r}: {gate_type.name} cannot take {n_inputs} inputs"


class CircuitError(ValueError):
    """Raised for structurally invalid circuits (undriven nets, cycles, ...)."""


class NetlistColumns(NamedTuple):
    """The integer form of a circuit's full-scan combinational view.

    Returned by :meth:`Circuit.columns`.  ``net_names``, the ``gate_*``
    columns, ``inputs``, ``outputs`` and ``order`` are the circuit's own
    storage, shared rather than copied: read them, never mutate them.

    Attributes:
        net_names: net id -> net name.
        gate_net: gate index -> id of the net the gate drives.
        gate_type: gate index -> gate type.
        gate_fanin: gate index -> fan-in net ids, in pin order.
        inputs: primary input net ids, in declaration order.
        outputs: primary output net ids, in declaration order.
        test_pins: ids of :attr:`Circuit.combinational_inputs`, in order.
        observed: ids of :attr:`Circuit.combinational_outputs`, in order.
        order: combinational gate indices in :meth:`Circuit.topological_order`.
    """

    net_names: Sequence[str]
    gate_net: Sequence[int]
    gate_type: Sequence[GateType]
    gate_fanin: Sequence[Tuple[int, ...]]
    inputs: Sequence[int]
    outputs: Sequence[int]
    test_pins: List[int]
    observed: List[int]
    order: Sequence[int]


def _first_repeat(items: Sequence) -> Optional[object]:
    """The first item of ``items`` that occurred before, or ``None``."""
    seen: set = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


#: Driver column values that are not gate indices.
_UNDRIVEN = -1
_PRIMARY_INPUT = -2


class Circuit:
    """A gate-level netlist with optional D flip-flops, stored as columns.

    The netlist is the net table (``net id -> name``, ``name -> id`` and the
    driver of every net: a gate index, a primary input or nothing yet) plus
    the per-gate columns described in the module docstring.  Every
    name-level view (:attr:`gates`, :meth:`get_gate`, :attr:`flip_flops`,
    :meth:`topological_order`, ...) is derived from them.

    Args:
        name: circuit name (used in reports and ``.bench`` output).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._net_names: List[str] = []
        # name -> net id; built on first use by _ids(), so a bulk-built
        # circuit that is only read through its columns never holds it.
        self._net_id: Optional[Dict[str, int]] = {}
        # Flat int arrays rather than lists: a full-scale netlist would
        # otherwise hold a boxed int per entry.
        # net id -> index of the driving gate, _PRIMARY_INPUT or _UNDRIVEN.
        self._driver = array("i")
        self._inputs: List[int] = []
        self._outputs: List[int] = []
        self._output_set: Set[int] = set()
        self._gate_net = array("i")
        self._gate_type: List[GateType] = []
        self._gate_fanin: List[Tuple[int, ...]] = []
        # Gate index -> its Gate once materialised.  Gates are append-only
        # and a net never changes name, so an entry never goes stale.
        self._gate_cache: Dict[int, Gate] = {}
        self._changed()

    def _changed(self) -> None:
        """Drop every cache derived from the structure."""
        self._order_cache: Optional[Sequence[int]] = None
        self._flip_flop_cache: Optional[List[int]] = None
        self._n_gates_cache: Optional[int] = None
        self._structure_token: Optional[object] = None
        self._structure_digest: Optional[str] = None

    def _ids(self) -> Dict[str, int]:
        """The ``name -> net id`` table."""
        if self._net_id is None:
            self._net_id = dict(zip(self._net_names, range(len(self._net_names))))
        return self._net_id

    def _net(self, name: str) -> int:
        """Id of net ``name``, assigned on first mention."""
        ids = self._ids()
        net = ids.get(name)
        if net is None:
            net = ids[name] = len(self._net_names)
            self._net_names.append(name)
            self._driver.append(_UNDRIVEN)
        return net

    # -- construction -----------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input net."""
        net = self._net(name)
        if self._driver[net] == _PRIMARY_INPUT:
            raise CircuitError(f"duplicate primary input {name!r}")
        if self._driver[net] >= 0:
            raise CircuitError(f"net {name!r} already driven by a gate")
        self._driver[net] = _PRIMARY_INPUT
        self._inputs.append(net)
        self._changed()

    def add_output(self, name: str) -> None:
        """Declare a primary output net (must be driven by a PI or a gate)."""
        net = self._net(name)
        if net in self._output_set:
            raise CircuitError(f"duplicate primary output {name!r}")
        self._outputs.append(net)
        self._output_set.add(net)
        self._changed()

    def add_gate(self, output: str, gate_type: GateType, inputs: Sequence[str]) -> Gate:
        """Add a gate driving net ``output``; returns the created gate."""
        inputs = tuple(inputs)
        net = self._ids().get(output)
        if net is not None and self._driver[net] >= 0:
            raise CircuitError(f"net {output!r} already driven by a gate")
        if net is not None and self._driver[net] == _PRIMARY_INPUT:
            raise CircuitError(f"net {output!r} is a primary input")
        if not gate_type.arity_ok(len(inputs)):
            raise CircuitError(_arity_message(output, gate_type, len(inputs)))
        net = self._net(output)
        index = len(self._gate_net)
        self._driver[net] = index
        self._gate_net.append(net)
        self._gate_type.append(gate_type)
        self._gate_fanin.append(tuple(map(self._net, inputs)))
        self._changed()
        return self._gate(index)

    @classmethod
    def from_columns(
        cls,
        name: str,
        net_names: Sequence[str],
        inputs: Sequence[int],
        gate_net: Sequence[int],
        gate_type: Sequence[GateType],
        gate_fanin: Sequence[Tuple[int, ...]],
        outputs: Sequence[int],
    ) -> "Circuit":
        """Build and validate a circuit from integer columns in one pass.

        The result is the circuit the equivalent ``add_input`` /
        ``add_gate`` / ``add_output`` sequence builds (inputs, then gates in
        column order, then outputs), and the same checks run, once each
        over the ids: distinct net names, no duplicate primary input or
        output, one driver per net and none on a primary input, legal
        arity, nothing undriven read or observed, and no combinational
        cycle.

        Args:
            name: circuit name.
            net_names: net id -> name; ids index this list.
            inputs: primary input net ids, in declaration order.
            gate_net: per gate, the id of the net it drives.
            gate_type: per gate, its type.
            gate_fanin: per gate, its fan-in net ids in pin order.
            outputs: primary output net ids, in declaration order.

        Raises:
            CircuitError: describing the first problem found.
        """
        circuit = cls(name)
        names = list(net_names)
        repeated = _first_repeat(names)
        if repeated is not None:
            raise CircuitError(f"duplicate net name {repeated!r}")
        gate_net = array("i", gate_net)
        gate_type = list(gate_type)
        gate_fanin = [tuple(fanin) for fanin in gate_fanin]
        if not len(gate_net) == len(gate_type) == len(gate_fanin):
            raise CircuitError("gate columns differ in length")
        mentioned = list(chain(inputs, gate_net, chain.from_iterable(gate_fanin), outputs))
        if mentioned and not 0 <= min(mentioned) <= max(mentioned) < len(names):
            raise CircuitError("net id out of range")

        driver = array("i", [_UNDRIVEN]) * len(names)
        for net in inputs:
            if driver[net] == _PRIMARY_INPUT:
                raise CircuitError(f"duplicate primary input {names[net]!r}")
            driver[net] = _PRIMARY_INPUT
        for index, (net, kind, fanin) in enumerate(zip(gate_net, gate_type, gate_fanin)):
            if driver[net] == _PRIMARY_INPUT:
                raise CircuitError(f"net {names[net]!r} is a primary input")
            if driver[net] != _UNDRIVEN:
                raise CircuitError(f"net {names[net]!r} already driven by a gate")
            if not kind.arity_ok(len(fanin)):
                raise CircuitError(_arity_message(names[net], kind, len(fanin)))
            driver[net] = index
        repeated = _first_repeat(outputs)
        if repeated is not None:
            raise CircuitError(f"duplicate primary output {names[repeated]!r}")

        circuit._net_names = names
        circuit._net_id = None
        circuit._driver = driver
        circuit._inputs = list(inputs)
        circuit._outputs = list(outputs)
        circuit._output_set = set(outputs)
        circuit._gate_net = gate_net
        circuit._gate_type = gate_type
        circuit._gate_fanin = gate_fanin
        circuit.validate()
        return circuit

    # -- basic views ---------------------------------------------------------
    def _gate(self, index: int) -> Gate:
        """The :class:`Gate` of gate ``index``, materialised on first use."""
        gate = self._gate_cache.get(index)
        if gate is None:
            names = self._net_names
            gate = Gate(
                output=names[self._gate_net[index]],
                gate_type=self._gate_type[index],
                inputs=tuple([names[net] for net in self._gate_fanin[index]]),
            )
            self._gate_cache[index] = gate
        return gate

    def _names(self, nets: Sequence[int]) -> List[str]:
        names = self._net_names
        return [names[net] for net in nets]

    @property
    def primary_inputs(self) -> List[str]:
        """Primary input net names, in declaration order."""
        return self._names(self._inputs)

    @property
    def primary_outputs(self) -> List[str]:
        """Primary output net names, in declaration order."""
        return self._names(self._outputs)

    @property
    def gates(self) -> Mapping[str, Gate]:
        """Mapping from driven net name to gate, in insertion order.

        A read-only live view over the gate columns, not a copy: it rejects
        assignment and reflects gates added later.  Looking a gate up
        materialises its :class:`Gate` (once; it is cached).  Take
        ``dict(circuit.gates)`` to keep a snapshot while the circuit grows.
        """
        return _GateView(self)

    def _flip_flops(self) -> List[int]:
        """Gate indices of the DFFs, in insertion order."""
        if self._flip_flop_cache is None:
            dff = GateType.DFF  # identity: see _kahn
            self._flip_flop_cache = [
                index for index, kind in enumerate(self._gate_type) if kind is dff
            ]
        return self._flip_flop_cache

    @property
    def flip_flops(self) -> List[Gate]:
        """All DFF gates, in insertion order."""
        return [self._gate(index) for index in self._flip_flops()]

    def _logic_gates(self) -> List[int]:
        # Identity tests, as in _flip_flops: ``is_sequential`` and
        # ``is_source`` cost an enum hash per gate.
        dff, pi, zero, one = GateType.DFF, GateType.INPUT, GateType.CONST0, GateType.CONST1
        return [
            index
            for index, kind in enumerate(self._gate_type)
            if kind is not dff and kind is not pi and kind is not zero and kind is not one
        ]

    @property
    def combinational_gates(self) -> List[Gate]:
        """All non-DFF, non-source gates."""
        return [self._gate(index) for index in self._logic_gates()]

    @property
    def n_gates(self) -> int:
        """Number of combinational gates (the paper's "# Gates" metric)."""
        if self._n_gates_cache is None:
            self._n_gates_cache = len(self._logic_gates())
        return self._n_gates_cache

    @property
    def n_flip_flops(self) -> int:
        """Number of D flip-flops (scan cells in the full-scan view)."""
        return len(self._flip_flops())

    def get_gate(self, net: str) -> Gate:
        """Return the gate driving ``net``.

        Raises:
            KeyError: if the net is a primary input or unknown.
        """
        index = self._driver[self._ids()[net]]
        if index < 0:
            raise KeyError(net)
        return self._gate(index)

    def is_primary_input(self, net: str) -> bool:
        """``True`` if ``net`` is a declared primary input."""
        net_id = self._ids().get(net)
        return net_id is not None and self._driver[net_id] == _PRIMARY_INPUT

    def nets(self) -> List[str]:
        """Every net name: primary inputs first, then gate outputs."""
        return self._names(self._inputs) + self._names(self._gate_net)

    # -- full-scan combinational view ---------------------------------------------
    def _test_pin_ids(self) -> List[int]:
        gate_net = self._gate_net
        return self._inputs + [gate_net[index] for index in self._flip_flops()]

    def _observed_ids(self) -> List[int]:
        fanin = self._gate_fanin
        return self._outputs + [fanin[index][0] for index in self._flip_flops()]

    @property
    def combinational_inputs(self) -> List[str]:
        """Pins a test cube assigns: primary inputs, then flip-flop outputs."""
        return self._names(self._test_pin_ids())

    @property
    def combinational_outputs(self) -> List[str]:
        """Observable nets: primary outputs, then flip-flop data inputs."""
        return self._names(self._observed_ids())

    @property
    def n_test_pins(self) -> int:
        """Length of a test cube for this circuit (PIs + flip-flops)."""
        return len(self._inputs) + len(self._flip_flops())

    def columns(self) -> NetlistColumns:
        """The validated netlist as integer columns (see :class:`NetlistColumns`).

        Raises:
            CircuitError: if the circuit is invalid (see :meth:`validate`).
        """
        self.validate()
        return NetlistColumns(
            net_names=self._net_names,
            gate_net=self._gate_net,
            gate_type=self._gate_type,
            gate_fanin=self._gate_fanin,
            inputs=self._inputs,
            outputs=self._outputs,
            test_pins=self._test_pin_ids(),
            observed=self._observed_ids(),
            order=self._topological_gates(),
        )

    # -- structural analysis ------------------------------------------------------
    def validate(self) -> None:
        """Check that every referenced net is driven and the logic is acyclic.

        Raises:
            CircuitError: describing the first problem found.
        """
        names, driver = self._net_names, self._driver
        # Every id with no driver was mentioned by a read, an output or a
        # bulk net table; only the first two are errors.
        if _UNDRIVEN in driver:
            for index, fanin in enumerate(self._gate_fanin):
                for net in fanin:
                    if driver[net] == _UNDRIVEN:
                        gate = names[self._gate_net[index]]
                        raise CircuitError(f"gate {gate!r} reads undriven net {names[net]!r}")
            for net in self._outputs:
                if driver[net] == _UNDRIVEN:
                    raise CircuitError(f"primary output {names[net]!r} is undriven")
        self._topological_gates()  # raises on combinational cycles

    def topological_order(self) -> List[str]:
        """Combinational gate outputs in evaluation order (Kahn's algorithm).

        Flip-flop outputs are treated as sources (their value is part of the
        state, not computed combinationally), and flip-flops themselves are
        excluded from the order.  The initial ready queue is sorted by net
        name and later gates join it first-in first-out, in insertion order,
        so the order depends on names and insertion order, never on ids.

        Raises:
            CircuitError: if the combinational logic contains a cycle.
        """
        return self._names([self._gate_net[index] for index in self._topological_gates()])

    def _topological_gates(self) -> Sequence[int]:
        """Gate indices of :meth:`topological_order` (cached)."""
        if self._order_cache is None:
            self._order_cache = array("i", self._kahn())
        return self._order_cache

    def _kahn(self) -> List[int]:
        names, driver, gate_net = self._net_names, self._driver, self._gate_net
        # Identity, not GateType.is_sequential: this runs once per gate on
        # full-scale netlists, and the predicate costs an enum hash.
        dff = GateType.DFF
        comb = [kind is not dff for kind in self._gate_type]
        indegree = [0] * len(comb)
        dependents: List[List[int]] = [[] for _ in comb]
        for index, fanin in enumerate(self._gate_fanin):
            if not comb[index]:
                continue
            count = 0
            for net in fanin:
                source = driver[net]
                if source >= 0:
                    if comb[source]:
                        dependents[source].append(index)
                        count += 1
                elif source == _UNDRIVEN:
                    gate = names[gate_net[index]]
                    raise CircuitError(f"gate {gate!r} reads undriven net {names[net]!r}")
            indegree[index] = count

        ready = deque(
            sorted(
                (index for index, deg in enumerate(indegree) if deg == 0 and comb[index]),
                key=lambda index: names[gate_net[index]],
            )
        )
        order: List[int] = []
        while ready:
            index = ready.popleft()
            order.append(index)
            for dependent in dependents[index]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != sum(comb):
            raise CircuitError("combinational logic contains a cycle")
        return order

    def structure_token(self) -> object:
        """Opaque token identifying the current netlist structure.

        The returned sentinel compares by identity: two calls return the
        *same* object for as long as the circuit is not mutated, and a
        different one after any ``add_input`` / ``add_output`` /
        ``add_gate``.  Callers (e.g. the engine's compiled-program cache)
        use it to detect stale derived data without hashing the whole
        netlist.  The token carries no state of its own.
        """
        if self._structure_token is None:
            self._structure_token = object()
        return self._structure_token

    def structure_digest(self) -> str:
        """Content hash of the netlist structure, stable across processes.

        Unlike :meth:`structure_token` (an identity sentinel, valid only
        within one process), the digest is computed from the declared
        inputs/outputs and every gate's type and pin connections, by name,
        so it can key *persistent* derived data — the workload disk cache
        uses it so an edited netlist can never be served another circuit's
        cubes.  Net ids do not enter it, and neither does the circuit name:
        renaming a circuit does not change what it computes.
        """
        if self._structure_digest is None:
            names = self._net_names
            parts = ["|".join(self.primary_inputs), "\x1e", "|".join(self.primary_outputs)]
            for net, kind, fanin in zip(self._gate_net, self._gate_type, self._gate_fanin):
                inputs = ",".join([names[source] for source in fanin])
                # ``_name_`` is the member name as a plain attribute; the
                # ``name`` property costs a descriptor call per gate.
                parts.append(f"\x1e{names[net]}\x1f{kind._name_}\x1f{inputs}")
            self._structure_digest = blake2b(
                "".join(parts).encode(), digest_size=16
            ).hexdigest()
        return self._structure_digest

    def levelize(self) -> Dict[str, int]:
        """Logic depth of every net (sources at level 0)."""
        names, gate_net, gate_fanin = self._net_names, self._gate_net, self._gate_fanin
        level = [0] * len(names)
        levels = dict.fromkeys(self._names(self._test_pin_ids()), 0)
        level_of = level.__getitem__
        for index in self._topological_gates():
            net = gate_net[index]
            level[net] = levels[names[net]] = 1 + max(
                map(level_of, gate_fanin[index]), default=0
            )
        return levels

    def depth(self) -> int:
        """Maximum combinational depth of the circuit."""
        levels = self.levelize()
        return max(levels.values()) if levels else 0

    def fanout_map(self) -> Dict[str, List[str]]:
        """Mapping from net name to the gates (by output net) that read it."""
        names = self._net_names
        fanout: Dict[str, List[str]] = {net: [] for net in self.nets()}
        for net, fanin in zip(self._gate_net, self._gate_fanin):
            for source in fanin:
                fanout.setdefault(names[source], []).append(names[net])
        return fanout

    def fanout_counts(self) -> Dict[str, int]:
        """Number of readers of every net (primary outputs count as one reader).

        Keys are :meth:`nets`, followed by any undriven net that is read.
        """
        names, driver = self._net_names, self._driver
        counts = Counter(chain.from_iterable(self._gate_fanin))
        counts.update(self._outputs)
        result = {names[net]: counts[net] for net in chain(self._inputs, self._gate_net)}
        if _UNDRIVEN in driver:
            for net in sorted(counts):
                if driver[net] == _UNDRIVEN:
                    result[names[net]] = counts[net]
        return result

    def transitive_fanin(self, net: str) -> List[str]:
        """All nets that can influence ``net`` (excluding ``net`` itself)."""
        start = self._ids().get(net)
        if start is None:
            return []
        driver, kinds, gate_fanin = self._driver, self._gate_type, self._gate_fanin
        seen: Set[int] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            index = driver[current]
            if index < 0 or kinds[index].is_sequential and current != start:
                continue
            for parent in gate_fanin[index]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(self._names(seen))

    # -- reporting -------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Summary statistics in the units the paper's Table I uses."""
        return {
            "primary_inputs": len(self._inputs),
            "primary_outputs": len(self._outputs),
            "flip_flops": self.n_flip_flops,
            "gates": self.n_gates,
            "test_pins": self.n_test_pins,
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit(name={self.name!r}, inputs={len(self._inputs)}, "
            f"ffs={self.n_flip_flops}, gates={self.n_gates})"
        )


class _GateView(MappingABC):
    """Read-only live mapping ``driven net name -> Gate`` over a circuit's columns."""

    __slots__ = ("_circuit",)

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = circuit

    def __getitem__(self, net: str) -> Gate:
        return self._circuit.get_gate(net)

    def __contains__(self, net: object) -> bool:
        circuit = self._circuit
        net_id = circuit._ids().get(net)  # type: ignore[arg-type]
        return net_id is not None and circuit._driver[net_id] >= 0

    def __iter__(self) -> Iterator[str]:
        circuit = self._circuit
        names = circuit._net_names
        return (names[net] for net in circuit._gate_net)

    def __len__(self) -> int:
        return len(self._circuit._gate_net)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<gates of {self._circuit.name!r}: {len(self)}>"
