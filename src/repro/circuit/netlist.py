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
consumers that walk gates by name (``.bench`` export, the reference
engines of the tests); they are created on first request and cached.

The fan-in tuples are the stored form.  The bulk passes read a derived,
cached view of them, :meth:`Circuit.fanin_arrays`: every gate's fan-in net
ids in one flat int32 array with per-gate offsets (CSR), plus an int8
gate-type code per gate.  :meth:`Circuit.from_columns`' checks, validation,
the topological sort, the compiler and the capacitance rows are array
passes over it, so no per-gate Python loop runs on a full-scale netlist.

The topological order is Kahn's algorithm with a first-in first-out queue
whose initial ready set is sorted by net name, computed in *waves*: a gate
joins the queue while its last combinational predecessor is popped, so the
queue pops wave 0 (the sorted ready set), then the gates whose last
predecessor is in wave 0, and so on, each wave in the order of (queue
position of that predecessor, gate index).  Each wave is one vectorised
step over the dependents of the wave before; :meth:`Circuit.topological_order`
spells out why the order is the queue's.

Sequential elements are D flip-flops; in the full-scan methodology the paper
assumes, every flip-flop is a scan cell, so the *combinational view* of the
circuit treats flip-flop outputs as pseudo-primary-inputs and flip-flop data
inputs as pseudo-primary-outputs.  Test cubes are defined over
``primary_inputs + flip-flop outputs`` in that order, which is the pin
ordering used throughout the experiments.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

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
        order: combinational gate indices in :meth:`Circuit.topological_order`
            (a read-only int32 array).
    """

    net_names: Sequence[str]
    gate_net: Sequence[int]
    gate_type: Sequence[GateType]
    gate_fanin: Sequence[Tuple[int, ...]]
    inputs: Sequence[int]
    outputs: Sequence[int]
    test_pins: List[int]
    observed: List[int]
    order: np.ndarray


class FaninArrays(NamedTuple):
    """The gate columns as flat arrays, for the bulk passes over a netlist.

    Returned by :meth:`Circuit.fanin_arrays`; a cached view of the fan-in
    tuples and gate types, shared rather than copied (the arrays are
    read-only).

    Attributes:
        nets: int32, every gate's fan-in net ids in pin order, gate after gate.
        offsets: int32, ``n_gates + 1`` entries: gate ``i`` reads
            ``nets[offsets[i]:offsets[i + 1]]``.
        kinds: int8, gate ``i``'s type as an index into :data:`GATE_TYPES`.
    """

    nets: np.ndarray
    offsets: np.ndarray
    kinds: np.ndarray


#: Gate-type codes of :attr:`FaninArrays.kinds`: code ``c`` is ``GATE_TYPES[c]``.
GATE_TYPES: Tuple[GateType, ...] = tuple(GateType)
# Keyed by member name: a str key hashes in C, a GateType key through
# Enum.__hash__, once per gate of a full-scale netlist.
_CODE_OF_NAME = {kind._name_: code for code, kind in enumerate(GATE_TYPES)}
_member_name = attrgetter("_name_")
_DFF_CODE = GATE_TYPES.index(GateType.DFF)
_INPUT_CODE = GATE_TYPES.index(GateType.INPUT)
_ONE = np.int32(1)
#: Per code: a logic gate, neither a flip-flop nor a source.
_IS_LOGIC = np.array([not kind.is_sequential and not kind.is_source for kind in GATE_TYPES])
#: ``_ARITY_OK[code, min(n, 2)]``: may a gate of that type read ``n`` nets?
#: Every type takes exactly 0, exactly 1 or any number from 2 up.
_ARITY_OK = np.array([[kind.arity_ok(n) for n in range(3)] for kind in GATE_TYPES])


def _fanin_arrays(
    gate_type: Sequence[GateType], gate_fanin: Sequence[Tuple[int, ...]]
) -> FaninArrays:
    """Build the :class:`FaninArrays` of two gate columns.

    Raises:
        OverflowError: if a fan-in net id does not fit in 32 bits.
    """
    n_gates = len(gate_fanin)
    offsets = np.zeros(n_gates + 1, dtype=np.int32)
    lengths = np.fromiter(map(len, gate_fanin), dtype=np.int32, count=n_gates)
    np.cumsum(lengths, dtype=np.int32, out=offsets[1:])
    nets = np.fromiter(
        chain.from_iterable(gate_fanin), dtype=np.int32, count=int(offsets[-1])
    )
    kinds = np.fromiter(
        map(_CODE_OF_NAME.__getitem__, map(_member_name, gate_type)),
        dtype=np.int8,
        count=n_gates,
    )
    for column in (nets, offsets, kinds):
        column.flags.writeable = False
    return FaninArrays(nets, offsets, kinds)


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


def _assign_drivers(
    driver: np.ndarray, gate_ids: np.ndarray, fanin: FaninArrays, names: Sequence[str]
) -> None:
    """Record gate ``i`` as the driver of net ``gate_ids[i]``, for every gate.

    Checks what :meth:`Circuit.add_gate` checks, and raises for the first
    gate, in column order, that drives a primary input, drives a net an
    earlier gate drives or has an illegal arity (in that order of
    precedence within one gate).

    Raises:
        CircuitError: describing the first problem found.
    """
    index = np.arange(len(gate_ids), dtype=np.int32)
    on_input = driver[gate_ids] == _PRIMARY_INPUT
    driver[gate_ids] = index
    lengths = np.diff(fanin.offsets)
    bad_arity = ~_ARITY_OK[fanin.kinds, np.minimum(lengths, 2)]
    # Of the gates sharing a net, one is kept; the others read back another index.
    if not (on_input.any() or bad_arity.any() or (driver[gate_ids] != index).any()):
        return
    again = np.ones(len(gate_ids), dtype=bool)
    again[np.unique(gate_ids, return_index=True)[1]] = False
    first = int(np.argmax(on_input | again | bad_arity))
    net = names[gate_ids[first]]
    if on_input[first]:
        raise CircuitError(f"net {net!r} is a primary input")
    if again[first]:
        raise CircuitError(f"net {net!r} already driven by a gate")
    kind = GATE_TYPES[fanin.kinds[first]]
    raise CircuitError(_arity_message(net, kind, int(lengths[first])))


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
        self._order_cache: Optional[np.ndarray] = None
        self._fanin_cache: Optional[FaninArrays] = None
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
        arity, then :meth:`validate`'s (no INPUT-type gate, nothing
        undriven read or observed, and no combinational cycle).  The
        per-gate checks are array passes over :meth:`fanin_arrays` that
        report the problem a gate-by-gate pass would meet first.

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
        if len(set(names)) != len(names):
            raise CircuitError(f"duplicate net name {_first_repeat(names)!r}")
        gate_net = array("i", gate_net)
        gate_type = list(gate_type)
        gate_fanin = list(map(tuple, gate_fanin))
        if not len(gate_net) == len(gate_type) == len(gate_fanin):
            raise CircuitError("gate columns differ in length")
        try:
            fanin = _fanin_arrays(gate_type, gate_fanin)
            input_ids = np.array(inputs, dtype=np.int32)
            output_ids = np.array(outputs, dtype=np.int32)
        except OverflowError:
            raise CircuitError("net id out of range") from None
        gate_ids = np.array(gate_net, dtype=np.int32)
        n_ids = len(names)
        for ids in (input_ids, gate_ids, fanin.nets, output_ids):
            if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
                raise CircuitError("net id out of range")

        repeated = _first_repeat(inputs)
        if repeated is not None:
            raise CircuitError(f"duplicate primary input {names[repeated]!r}")
        driver = np.full(n_ids, _UNDRIVEN, dtype=np.int32)
        driver[input_ids] = _PRIMARY_INPUT
        _assign_drivers(driver, gate_ids, fanin, names)
        repeated = _first_repeat(outputs)
        if repeated is not None:
            raise CircuitError(f"duplicate primary output {names[repeated]!r}")

        circuit._net_names = names
        circuit._net_id = None
        circuit._driver = array("i", driver.tobytes())
        circuit._inputs = list(inputs)
        circuit._outputs = list(outputs)
        circuit._output_set = set(outputs)
        circuit._gate_net = gate_net
        circuit._gate_type = gate_type
        circuit._gate_fanin = gate_fanin
        circuit._fanin_cache = fanin
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
            kinds = self.fanin_arrays().kinds
            self._flip_flop_cache = np.flatnonzero(kinds == _DFF_CODE).tolist()
        return self._flip_flop_cache

    @property
    def flip_flops(self) -> List[Gate]:
        """All DFF gates, in insertion order."""
        return [self._gate(index) for index in self._flip_flops()]

    def _logic_gates(self) -> List[int]:
        """Gate indices of the logic gates (no DFF, input or constant)."""
        return np.flatnonzero(_IS_LOGIC[self.fanin_arrays().kinds]).tolist()

    @property
    def combinational_gates(self) -> List[Gate]:
        """All non-DFF, non-source gates."""
        return [self._gate(index) for index in self._logic_gates()]

    @property
    def n_gates(self) -> int:
        """Number of combinational gates (the paper's "# Gates" metric)."""
        if self._n_gates_cache is None:
            self._n_gates_cache = int(np.count_nonzero(_IS_LOGIC[self.fanin_arrays().kinds]))
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

    def fanin_arrays(self) -> FaninArrays:
        """The gate columns as flat arrays (see :class:`FaninArrays`), cached."""
        if self._fanin_cache is None:
            self._fanin_cache = _fanin_arrays(self._gate_type, self._gate_fanin)
        return self._fanin_cache

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
        """Check what construction leaves open: gate types, drivers and cycles.

        In this order: no gate has type INPUT (primary inputs are declared
        with :meth:`add_input`, and no simulator evaluates such a gate),
        every net read or observed is driven, and the logic is acyclic.

        Raises:
            CircuitError: describing the first problem found.
        """
        names, driver = self._net_names, self._driver
        is_input = self.fanin_arrays().kinds == _INPUT_CODE
        if is_input.any():
            gate = names[self._gate_net[int(np.argmax(is_input))]]
            raise CircuitError(f"gate {gate!r}: INPUT is a primary input, not a gate")
        # Every id with no driver was mentioned by a read, an output or a
        # bulk net table; only the first two are errors.
        undriven = np.array(driver, dtype=np.int32) == _UNDRIVEN
        if undriven.any():
            nets, offsets, _ = self.fanin_arrays()
            reads = undriven[nets]
            if reads.any():
                pin = int(np.argmax(reads))
                index = int(np.searchsorted(offsets, pin, side="right")) - 1
                gate = names[self._gate_net[index]]
                raise CircuitError(f"gate {gate!r} reads undriven net {names[nets[pin]]!r}")
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

        The queue is not run gate by gate but one wave at a time: wave 0 is
        the sorted ready set, wave ``k + 1`` the gates whose last
        combinational predecessor is in wave ``k``, ordered by (queue
        position of that predecessor, gate index).  That is the order the
        queue pops them in, because a first-in first-out queue pops every
        gate of wave ``k`` before any gate the pops of wave ``k`` append, and
        a gate is appended, after the dependents of earlier pops, while its
        last predecessor is popped, in gate-index order among that
        predecessor's dependents (see the module docstring).

        Raises:
            CircuitError: if the combinational logic contains a cycle.
        """
        gate_net = self._gate_net
        return self._names([gate_net[index] for index in self._topological_gates().tolist()])

    def _topological_gates(self) -> np.ndarray:
        """Gate indices of :meth:`topological_order` as read-only int32 (cached)."""
        if self._order_cache is None:
            order = self._kahn()
            order.flags.writeable = False
            self._order_cache = order
        return self._order_cache

    def _kahn(self) -> np.ndarray:
        """Kahn's first-in first-out order, one wave at a time (see :meth:`topological_order`)."""
        names, gate_net = self._net_names, self._gate_net
        nets, offsets, kinds = self.fanin_arrays()
        n_gates = len(kinds)
        comb = kinds != _DFF_CODE
        # Per fan-in pin: the gate reading it and the driver of the net read.
        reader = np.repeat(np.arange(n_gates, dtype=np.int32), np.diff(offsets))
        source = np.array(self._driver, dtype=np.int32)[nets]
        undriven = source == _UNDRIVEN
        undriven &= comb[reader]
        if undriven.any():
            pin = int(np.argmax(undriven))
            gate = names[gate_net[reader[pin]]]
            raise CircuitError(f"gate {gate!r} reads undriven net {names[nets[pin]]!r}")

        # Combinational edges pred -> succ.  Each gate's dependents, in the
        # gate-index order the queue appends them in, are the edges sorted
        # by (pred, succ); edges equal in both are interchangeable.
        edge = source >= 0
        edge[edge] = comb[source[edge]]
        edge &= comb[reader]
        pred, succ = source[edge], reader[edge]
        del reader, source, edge
        n_dependents = np.bincount(pred, minlength=n_gates).astype(np.int32)
        first = np.cumsum(n_dependents, dtype=np.int32)
        first -= n_dependents
        remaining = np.bincount(succ, minlength=n_gates).astype(np.int32)
        key = pred.astype(np.int64)
        key *= n_gates
        key += succ
        del pred, succ
        key.sort()
        dependents = (key % n_gates).astype(np.int32)
        del key

        ready = np.flatnonzero(comb & (remaining == 0)).tolist()
        wave = np.array(sorted(ready, key=lambda index: names[gate_net[index]]), dtype=np.int32)
        waves = [wave]
        joined = np.full(n_gates, -1, dtype=np.int32)
        while wave.size:
            # The dependents of the wave, in the order its pops reach them.
            # (Array methods: the NumPy function wrappers cost more than
            # the work on a small wave.)
            counts = n_dependents[wave]
            take = (first[wave] - counts.cumsum(dtype=np.int32) + counts).repeat(counts)
            take += np.arange(take.size, dtype=np.int32)
            reached = dependents[take]
            # int32 operands keep ufunc.at on NumPy's fast path.
            np.subtract.at(remaining, reached, _ONE)
            hit = (remaining[reached] == 0).nonzero()[0].astype(np.int32)
            ready = reached[hit]
            # A gate joins the queue at its last occurrence in ``reached``:
            # the pop of its last predecessor.
            np.maximum.at(joined, ready, hit)
            wave = ready[joined[ready] == hit]
            waves.append(wave)
        order = np.concatenate(waves)
        if order.size != np.count_nonzero(comb):
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
        for index in self._topological_gates().tolist():
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
