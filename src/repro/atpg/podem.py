"""PODEM automatic test pattern generation.

PODEM (Path-Oriented DEcision Making) searches the space of *primary input*
assignments only: it picks an objective (activate the fault, then propagate
its effect), backtraces the objective to a test-pin assignment, implies the
consequences by three-valued simulation of a good and a faulty machine, and
backtracks on conflicts.  Unassigned pins stay X, which is what produces the
don't-care-rich cubes the DP-fill paper exploits.

Two implication implementations share the search algorithm:

* :class:`DictPodemEngine` — the original clarity-first reference: each
  implication step re-simulates the whole combinational circuit in
  topological order through per-net dictionaries and scalar
  ``evaluate_ternary`` calls (``O(decisions x gates)`` per fault).  It stays
  registered as the parity oracle of the compiled engine.
* :class:`~repro.engine.ternary.CompiledTernaryPodem` — event-driven
  ternary implication over the compiled array program, with the good and
  faulty machines of a row packed into one code that a table lookup per
  fan-in evaluates: a decision evaluates only gates whose inputs changed, a
  backtrack restores the changed rows from a trail, and the D set behind
  the D-frontier is kept up to date as codes change.  Bit-identical cubes, classification and
  decision/backtrack counters; ``benchmarks/bench_engine.py`` gates it at
  >= 3x the dict reference on the largest profile and measured 124-201x on
  b12 over three runs (32 faults, backtrack limit 15, one core of a 2-vCPU
  x86-64 host).

:class:`PodemEngine` is the facade everything else uses; it resolves the
implementation through the simulation-backend registry (the ``naive``
backend prefers the dict reference, every compiled backend the ternary
engine) and the ``REPRO_ATPG_MODE`` environment variable forces either one
process-wide.

Generation is only half the ATPG hot path: after each cube the driver
(:func:`~repro.atpg.tpg.generate_test_cubes`) fault-simulates a random fill
of it against every remaining fault to drop collateral detections.  That
post-generation verification sweep grades one pattern against many faults;
from 8 remaining faults on the packed engine serves it with the
fault-parallel fault-word kernel
(:func:`~repro.engine.fault.packed_first_detects_faults`) rather than a
per-fault loop, and shorter lists with the ``lanes`` kernel — see the
driver docs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.atpg.faults import StuckAtFault
from repro.circuit.gates import GateType, controlling_value, evaluate_ternary, inversion_parity
from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestCube
from repro.engine.backend import SimulationBackend, get_backend
from repro.engine.compile import compile_circuit
from repro.engine.ternary import CompiledTernaryPodem, resolve_atpg_mode
from repro.obs import recorder as obs


@dataclass
class PodemResult:
    """Outcome of running PODEM on one fault.

    Attributes:
        fault: the target fault.
        status: ``"detected"`` (cube found), ``"untestable"`` (search space
            exhausted — the fault is redundant), or ``"aborted"`` (backtrack
            limit hit).
        cube: the generated test cube (``None`` unless detected).  Pin order
            follows :attr:`Circuit.combinational_inputs`.
        backtracks: number of backtracks performed.
        decisions: number of pin assignments tried.
    """

    fault: StuckAtFault
    status: str
    cube: Optional[TestCube]
    backtracks: int
    decisions: int

    @property
    def detected(self) -> bool:
        """``True`` when a test cube was found."""
        return self.status == "detected"


def _flush_podem_telemetry(result: PodemResult) -> None:
    """Fold one PODEM outcome into the ``podem.*`` obs counters.

    Counters are recorded where a result is handed to the caller, never
    inside the search itself, so both implementations count alike.
    """
    if not obs.enabled():
        return
    obs.add_counters(
        {
            "podem.faults": 1,
            "podem.backtracks": result.backtracks,
            "podem.decisions": result.decisions,
            f"podem.status.{result.status}": 1,
        }
    )


class DictPodemEngine:
    """Reference PODEM engine: full dict-walking re-implication per decision.

    Args:
        circuit: circuit under test (full-scan combinational view).
        backtrack_limit: abort threshold; hard-to-detect or redundant faults
            give up after this many backtracks.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 100) -> None:
        circuit.validate()
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._order = circuit.topological_order()
        self._pins = circuit.combinational_inputs
        self._pin_set = set(self._pins)
        self._outputs = circuit.combinational_outputs
        self._output_set = set(self._outputs)
        self._fanout = circuit.fanout_map()
        self._levels = circuit.levelize()

    # -- simulation ------------------------------------------------------------
    def _imply(
        self, assignment: Dict[str, int], fault: StuckAtFault
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Three-valued simulation of the good and faulty machines."""
        good: Dict[str, int] = {}
        faulty: Dict[str, int] = {}
        for pin in self._pins:
            value = assignment.get(pin, X)
            good[pin] = value
            faulty[pin] = value
        if fault.net in self._pin_set:
            faulty[fault.net] = fault.stuck_value
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                good_value, faulty_value = ZERO, ZERO
            elif gate.gate_type is GateType.CONST1:
                good_value, faulty_value = ONE, ONE
            else:
                good_value = evaluate_ternary(gate.gate_type, [good[n] for n in gate.inputs])
                faulty_value = evaluate_ternary(gate.gate_type, [faulty[n] for n in gate.inputs])
            good[name] = good_value
            faulty[name] = faulty_value if name != fault.net else fault.stuck_value
        return good, faulty

    # -- analysis helpers ------------------------------------------------------------
    @staticmethod
    def _has_d(good: Dict[str, int], faulty: Dict[str, int], net: str) -> bool:
        g, f = good[net], faulty[net]
        return g != X and f != X and g != f

    def _detected(self, good: Dict[str, int], faulty: Dict[str, int]) -> bool:
        return any(self._has_d(good, faulty, net) for net in self._outputs)

    def _d_frontier(self, good: Dict[str, int], faulty: Dict[str, int]) -> List[str]:
        frontier: List[str] = []
        for name in self._order:
            gate = self.circuit.get_gate(name)
            if gate.gate_type.is_source:
                continue
            if self._has_d(good, faulty, name):
                continue
            if good[name] != X and faulty[name] != X:
                continue
            if any(self._has_d(good, faulty, net) for net in gate.inputs):
                frontier.append(name)
        return frontier

    def _x_path_exists(self, start: str, good: Dict[str, int], faulty: Dict[str, int]) -> bool:
        """Is there a path of still-undetermined nets from ``start`` to an output?"""
        if start in self._output_set:
            return True
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for reader in self._fanout.get(current, []):
                gate = self.circuit.get_gate(reader)
                if gate.gate_type.is_sequential:
                    # Flip-flop data inputs are observable; reaching the net
                    # feeding one is reaching an output (handled below via
                    # the output-set check on `current`).
                    continue
                if reader in seen:
                    continue
                if good[reader] != X and faulty[reader] != X and not self._has_d(good, faulty, reader):
                    continue
                if reader in self._output_set:
                    return True
                seen.add(reader)
                stack.append(reader)
            if current in self._output_set:
                return True
        return False

    # -- objective and backtrace ------------------------------------------------------
    def _choose_objective(
        self,
        fault: StuckAtFault,
        good: Dict[str, int],
        faulty: Dict[str, int],
    ) -> Optional[Tuple[str, int]]:
        """Return the next (net, value) objective, or None if the branch is dead."""
        site_value = good[fault.net]
        if site_value == X:
            return fault.net, fault.activation_value
        if site_value == fault.stuck_value:
            return None  # fault cannot be excited under the current assignment
        frontier = self._d_frontier(good, faulty)
        if not frontier:
            return None
        # Prefer the frontier gate closest to an observable output (shallowest
        # remaining propagation path): highest level is a decent proxy.
        frontier.sort(key=lambda name: self._levels.get(name, 0), reverse=True)
        for name in frontier:
            if not self._x_path_exists(name, good, faulty):
                continue
            gate = self.circuit.get_gate(name)
            for net in gate.inputs:
                if good[net] == X:
                    try:
                        value = ONE - controlling_value(gate.gate_type)
                    except ValueError:
                        value = ONE  # XOR-like gates: any definite value helps
                    return net, value
        return None

    def _backtrace(
        self, net: str, value: int, good: Dict[str, int]
    ) -> Optional[Tuple[str, int]]:
        """Walk an objective back to an unassigned test pin."""
        current, target = net, value
        guard = 0
        while current not in self._pin_set:
            guard += 1
            if guard > len(self._order) + len(self._pins) + 1:
                return None
            gate = self.circuit.get_gate(current)
            if gate.gate_type.is_source:
                return None
            target = target ^ inversion_parity(gate.gate_type)
            chosen = None
            for candidate in gate.inputs:
                if good[candidate] == X:
                    chosen = candidate
                    break
            if chosen is None:
                return None
            current = chosen
        if good[current] != X:
            return None
        return current, target

    # -- main search --------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Search for a test cube detecting ``fault``."""
        assignment: Dict[str, int] = {}
        decisions: List[List] = []  # [pin, value, exhausted]
        backtracks = 0
        total_decisions = 0

        while True:
            good, faulty = self._imply(assignment, fault)
            if self._detected(good, faulty):
                cube = self._cube_from_assignment(assignment, fault)
                return PodemResult(fault, "detected", cube, backtracks, total_decisions)

            objective = self._choose_objective(fault, good, faulty)
            next_assignment: Optional[Tuple[str, int]] = None
            if objective is not None:
                next_assignment = self._backtrace(objective[0], objective[1], good)

            if next_assignment is None:
                # Dead branch: undo decisions until one still has an untried value.
                while decisions and decisions[-1][2]:
                    pin, __, __ = decisions.pop()
                    assignment.pop(pin, None)
                if not decisions:
                    return PodemResult(fault, "untestable", None, backtracks, total_decisions)
                backtracks += 1
                if backtracks > self.backtrack_limit:
                    return PodemResult(fault, "aborted", None, backtracks, total_decisions)
                decisions[-1][1] ^= 1
                decisions[-1][2] = True
                assignment[decisions[-1][0]] = decisions[-1][1]
                continue

            pin, value = next_assignment
            assignment[pin] = value
            decisions.append([pin, value, False])
            total_decisions += 1

    def _cube_from_assignment(self, assignment: Dict[str, int], fault: StuckAtFault) -> TestCube:
        bits = [assignment.get(pin, X) for pin in self._pins]
        return TestCube(bits, name=fault.name)


class PodemEngine:
    """Reusable PODEM engine for one circuit (implementation facade).

    The implication implementation is resolved like the simulation backends:
    an explicit ``mode`` wins, then the ``REPRO_ATPG_MODE`` environment
    variable, then the resolved backend's preference (``naive`` keeps the
    dict reference, the compiled backends use the ternary array engine).
    Either way the results — cubes, classification, counters — are
    bit-identical; only the speed differs.

    Args:
        circuit: circuit under test (full-scan combinational view).
        backtrack_limit: abort threshold per fault.
        backend: backend name or instance (registry default when omitted).
        mode: ``"auto"`` / ``"dict"`` / ``"compiled"``; ``None`` resolves
            through :func:`~repro.engine.ternary.resolve_atpg_mode`.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 100,
        backend: Union[str, SimulationBackend, None] = None,
        mode: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.backend = get_backend(backend)
        resolved = resolve_atpg_mode(mode)
        if resolved == "auto":
            resolved = getattr(self.backend, "atpg_mode", "compiled")
        self.implementation = resolved
        if resolved == "compiled":
            compiled_program = getattr(self.backend, "compiled_program", None)
            self.program = (
                compiled_program(circuit) if compiled_program else compile_circuit(circuit)
            )
            self._impl = CompiledTernaryPodem(self.program, backtrack_limit=backtrack_limit)
        else:
            self.program = None
            self._impl = DictPodemEngine(circuit, backtrack_limit=backtrack_limit)

    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Search for a test cube detecting ``fault``."""
        if self.implementation == "dict":
            with obs.span(f"atpg/{self.circuit.name}/podem"):
                result = self._impl.generate(fault)
            _flush_podem_telemetry(result)
            return result
        site_row = self.program.net_index[fault.net]
        with obs.span(f"atpg/{self.circuit.name}/podem"):
            status, bits, backtracks, decisions = self._impl.run(
                site_row, fault.stuck_value
            )
        cube = TestCube(list(bits), name=fault.name) if status == "detected" else None
        result = PodemResult(fault, status, cube, backtracks, decisions)
        _flush_podem_telemetry(result)
        return result
