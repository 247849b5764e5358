"""Netlist container: gates, nets and the full-scan combinational view.

A :class:`Circuit` is a named collection of gates.  Every net is identified
by the name of its driver (a primary input or a gate output), which matches
the ``.bench`` convention.  Sequential elements are D flip-flops; in the
full-scan methodology the paper assumes, every flip-flop is a scan cell, so
the *combinational view* of the circuit treats flip-flop outputs as
pseudo-primary-inputs and flip-flop data inputs as pseudo-primary-outputs.
Test cubes are defined over ``primary_inputs + flip-flop outputs`` in that
order, which is the pin ordering used throughout the experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.circuit.gates import GateType


@dataclass(frozen=True)
class Gate:
    """A single gate instance.

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
            raise ValueError(
                f"gate {self.output!r}: {self.gate_type.name} cannot take {len(self.inputs)} inputs"
            )


class CircuitError(ValueError):
    """Raised for structurally invalid circuits (undriven nets, cycles, ...)."""


class Circuit:
    """A gate-level netlist with optional D flip-flops.

    Args:
        name: circuit name (used in reports and ``.bench`` output).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        # Membership only (never iterated): the lists above keep the order.
        self._input_set: Set[str] = set()
        self._output_set: Set[str] = set()
        self._gates: Dict[str, Gate] = {}
        self._changed()

    def _changed(self) -> None:
        """Drop every cache derived from the structure."""
        self._order_cache: Optional[List[str]] = None
        self._flip_flop_cache: Optional[List[Gate]] = None
        self._n_gates_cache: Optional[int] = None
        self._structure_token: Optional[object] = None
        self._structure_digest: Optional[str] = None

    # -- construction -----------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input net."""
        if name in self._input_set:
            raise CircuitError(f"duplicate primary input {name!r}")
        if name in self._gates:
            raise CircuitError(f"net {name!r} already driven by a gate")
        self._inputs.append(name)
        self._input_set.add(name)
        self._changed()

    def add_output(self, name: str) -> None:
        """Declare a primary output net (must be driven by a PI or a gate)."""
        if name in self._output_set:
            raise CircuitError(f"duplicate primary output {name!r}")
        self._outputs.append(name)
        self._output_set.add(name)
        self._changed()

    def add_gate(self, output: str, gate_type: GateType, inputs: Sequence[str]) -> Gate:
        """Add a gate driving net ``output``; returns the created gate."""
        if output in self._gates:
            raise CircuitError(f"net {output!r} already driven by a gate")
        if output in self._input_set:
            raise CircuitError(f"net {output!r} is a primary input")
        gate = Gate(output=output, gate_type=gate_type, inputs=tuple(inputs))
        self._gates[output] = gate
        self._changed()
        return gate

    # -- basic views ---------------------------------------------------------
    @property
    def primary_inputs(self) -> List[str]:
        """Primary input net names, in declaration order."""
        return list(self._inputs)

    @property
    def primary_outputs(self) -> List[str]:
        """Primary output net names, in declaration order."""
        return list(self._outputs)

    @property
    def gates(self) -> Mapping[str, Gate]:
        """Mapping from driven net name to gate, in insertion order.

        A read-only live view, not a copy: it rejects assignment and
        reflects gates added later.  Take ``dict(circuit.gates)`` to keep a
        snapshot while the circuit grows.
        """
        return MappingProxyType(self._gates)

    def _flip_flops(self) -> List[Gate]:
        if self._flip_flop_cache is None:
            self._flip_flop_cache = [
                g for g in self._gates.values() if g.gate_type.is_sequential
            ]
        return self._flip_flop_cache

    @property
    def flip_flops(self) -> List[Gate]:
        """All DFF gates, in insertion order."""
        return list(self._flip_flops())

    @property
    def combinational_gates(self) -> List[Gate]:
        """All non-DFF, non-source gates."""
        return [
            g
            for g in self._gates.values()
            if not g.gate_type.is_sequential and not g.gate_type.is_source
        ]

    @property
    def n_gates(self) -> int:
        """Number of combinational gates (the paper's "# Gates" metric)."""
        if self._n_gates_cache is None:
            self._n_gates_cache = len(self.combinational_gates)
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
        return self._gates[net]

    def is_primary_input(self, net: str) -> bool:
        """``True`` if ``net`` is a declared primary input."""
        return net in self._input_set

    def nets(self) -> List[str]:
        """Every net name: primary inputs first, then gate outputs."""
        return self._inputs + list(self._gates.keys())

    # -- full-scan combinational view ---------------------------------------------
    @property
    def combinational_inputs(self) -> List[str]:
        """Pins a test cube assigns: primary inputs, then flip-flop outputs."""
        return self._inputs + [ff.output for ff in self._flip_flops()]

    @property
    def combinational_outputs(self) -> List[str]:
        """Observable nets: primary outputs, then flip-flop data inputs."""
        return self._outputs + [ff.inputs[0] for ff in self._flip_flops()]

    @property
    def n_test_pins(self) -> int:
        """Length of a test cube for this circuit (PIs + flip-flops)."""
        return len(self.combinational_inputs)

    # -- structural analysis ------------------------------------------------------
    def validate(self) -> None:
        """Check that every referenced net is driven and the logic is acyclic.

        Raises:
            CircuitError: describing the first problem found.
        """
        driven = set(self._inputs) | set(self._gates.keys())
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in driven:
                    raise CircuitError(f"gate {gate.output!r} reads undriven net {net!r}")
        for net in self._outputs:
            if net not in driven:
                raise CircuitError(f"primary output {net!r} is undriven")
        self.topological_order()  # raises on combinational cycles

    def topological_order(self) -> List[str]:
        """Combinational gate outputs in evaluation order (Kahn's algorithm).

        Flip-flop outputs are treated as sources (their value is part of the
        state, not computed combinationally), and flip-flops themselves are
        excluded from the order.

        Raises:
            CircuitError: if the combinational logic contains a cycle.
        """
        if self._order_cache is not None:
            return list(self._order_cache)

        sources = set(self._inputs) | {ff.output for ff in self._flip_flops()}
        comb = {
            name: gate
            for name, gate in self._gates.items()
            if not gate.gate_type.is_sequential
        }
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        for name, gate in comb.items():
            count = 0
            for net in gate.inputs:
                if net in comb:
                    dependents.setdefault(net, []).append(name)
                    count += 1
                elif net not in sources and net not in self._gates:
                    raise CircuitError(f"gate {name!r} reads undriven net {net!r}")
            indegree[name] = count

        ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for dependent in dependents.get(name, []):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(comb):
            raise CircuitError("combinational logic contains a cycle")
        self._order_cache = order
        return list(order)

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
        inputs/outputs and every gate's type and pin connections, so it can
        key *persistent* derived data — the workload disk cache uses it so
        an edited netlist can never be served another circuit's cubes.  The
        circuit name is deliberately excluded: renaming a circuit does not
        change what it computes.
        """
        if self._structure_digest is None:
            digest = blake2b(digest_size=16)
            digest.update("|".join(self._inputs).encode())
            digest.update(b"\x1e")
            digest.update("|".join(self._outputs).encode())
            for name, gate in self._gates.items():
                digest.update(
                    f"\x1e{name}\x1f{gate.gate_type.name}\x1f{','.join(gate.inputs)}".encode()
                )
            self._structure_digest = digest.hexdigest()
        return self._structure_digest

    def levelize(self) -> Dict[str, int]:
        """Logic depth of every net (sources at level 0)."""
        levels: Dict[str, int] = {net: 0 for net in self._inputs}
        for ff in self._flip_flops():
            levels[ff.output] = 0
        for name in self.topological_order():
            gate = self._gates[name]
            levels[name] = 1 + max((levels.get(net, 0) for net in gate.inputs), default=0)
        return levels

    def depth(self) -> int:
        """Maximum combinational depth of the circuit."""
        levels = self.levelize()
        return max(levels.values()) if levels else 0

    def fanout_map(self) -> Dict[str, List[str]]:
        """Mapping from net name to the gates (by output net) that read it."""
        fanout: Dict[str, List[str]] = {net: [] for net in self.nets()}
        for gate in self._gates.values():
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate.output)
        return fanout

    def fanout_counts(self) -> Dict[str, int]:
        """Number of readers of every net (primary outputs count as one reader)."""
        counts = dict.fromkeys(self.nets(), 0)
        for gate in self._gates.values():
            for net in gate.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self._outputs:
            counts[net] = counts.get(net, 0) + 1
        return counts

    def transitive_fanin(self, net: str) -> List[str]:
        """All nets that can influence ``net`` (excluding ``net`` itself)."""
        seen: set = set()
        stack = [net]
        while stack:
            current = stack.pop()
            gate = self._gates.get(current)
            if gate is None or gate.gate_type.is_sequential and current != net:
                continue
            for parent in gate.inputs:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(seen)

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
