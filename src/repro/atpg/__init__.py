"""ATPG substrate: stuck-at faults, PODEM test generation and fault simulation.

The paper obtains its test cubes from a commercial ATPG tool (TetraMax).
This package is the offline stand-in: it enumerates single stuck-at faults
over the full-scan combinational view of a circuit, collapses equivalent
faults, generates a partially specified test cube per fault with a PODEM
implementation, and fault-simulates candidate patterns (with fault dropping)
to measure coverage.  The important property for the reproduction is that
PODEM leaves unconstrained test pins as X — that is exactly where the
don't-care-dominated cube sets of Table I come from.
"""

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulationResult, FaultSimulator
from repro.atpg.faults import StuckAtFault, full_fault_list
from repro.atpg.podem import PodemResult, PodemEngine
from repro.atpg.tpg import ATPGResult, generate_test_cubes

__all__ = [
    "StuckAtFault",
    "full_fault_list",
    "collapse_faults",
    "FaultSimulator",
    "FaultSimulationResult",
    "PodemEngine",
    "PodemResult",
    "ATPGResult",
    "generate_test_cubes",
]
