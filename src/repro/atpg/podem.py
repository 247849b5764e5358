"""PODEM automatic test pattern generation.

PODEM (Path-Oriented DEcision Making) searches the space of *primary input*
assignments only: it picks an objective (activate the fault, then propagate
its effect), backtraces the objective to a test-pin assignment, implies the
consequences by three-valued simulation of a good and a faulty machine, and
backtracks on conflicts.  Unassigned pins stay X, which is what produces the
don't-care-rich cubes the DP-fill paper exploits.

The search runs on :class:`~repro.engine.ternary.CompiledTernaryPodem`:
event-driven ternary implication over the compiled array program, with the
good and faulty machines of a row packed into one code that a table lookup
per fan-in evaluates.  A decision evaluates only gates whose inputs
changed, a backtrack restores the changed rows from a trail, and the D set
behind the D-frontier is kept up to date as codes change.
:class:`PodemEngine` wraps it for the rest of the package: it maps faults
to rows, times each search and records its counters, and turns the raw
result into a :class:`PodemResult`.

The clarity-first reference, which re-simulates the whole circuit through
per-net dictionaries on every decision (``O(decisions x gates)`` per
fault), lives in ``tests/reference_engines.py``.  The compiled engine
matches it cube for cube, classification and decision/backtrack counters
included; ``benchmarks/bench_engine.py`` gates
it at >= 3x the reference on the largest profile and measured 124-201x on
b12 over three runs (32 faults, backtrack limit 15, one core of a 2-vCPU
x86-64 host).

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
from typing import Optional

from repro.atpg.faults import StuckAtFault
from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestCube
from repro.engine.compile import compiled_program
from repro.engine.ternary import CompiledTernaryPodem
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
    inside the search itself.
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


class PodemEngine:
    """Reusable PODEM engine for one circuit.

    Args:
        circuit: circuit under test (full-scan combinational view).
        backtrack_limit: abort threshold per fault.
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 100) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.program = compiled_program(circuit)
        self._impl = CompiledTernaryPodem(self.program, backtrack_limit=backtrack_limit)

    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Search for a test cube detecting ``fault``.

        Raises:
            KeyError: when ``fault.net`` is not a net of the circuit.
        """
        site_row = self.program.net_index[fault.net]
        with obs.span(f"atpg/{self.circuit.name}/podem"):
            status, bits, backtracks, decisions = self._impl.run(
                site_row, fault.stuck_value
            )
        cube = TestCube(list(bits), name=fault.name) if status == "detected" else None
        result = PodemResult(fault, status, cube, backtracks, decisions)
        _flush_podem_telemetry(result)
        return result
