"""Fault simulation with fault dropping.

The simulator is *serial* in faults but *parallel* in patterns: the good
machine is evaluated once for the whole pattern batch, and each fault is then
re-evaluated only over its downstream cone with the fault site forced to the
stuck value.  Detection means any observable output (primary output or
flip-flop data input) differs from the good machine for at least one pattern.

This is the piece that grades every generated test set: coverage numbers in
the experiment harness and the "patterns keep detecting their target faults
after X-filling" integration tests both come from here.

Since the engine subsystem landed, :class:`FaultSimulator` is a thin facade
over a pluggable backend (see :mod:`repro.engine.backend`): ``"packed"``
grades faults on the compiled bit-parallel engine (64 patterns per machine
word, cone-restricted re-evaluation, real fault dropping, and an automatic
lanes/words execution-mode switch for wide pattern sets — see
:mod:`repro.engine.fault` and ``REPRO_FAULT_MODE``), and ``"naive"`` keeps
the original dict-walking implementation as the reference oracle.  Both run
in process and produce bit-identical results; the default is resolved
through the backend registry (``REPRO_BACKEND`` environment variable,
``packed`` otherwise).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.atpg.faults import StuckAtFault
from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.engine.backend import SimulationBackend, get_backend
from repro.engine.fault import FaultSimulationResult, resolve_fault_mode

__all__ = ["FaultSimulationResult", "FaultSimulator"]


class FaultSimulator:
    """Serial-fault / parallel-pattern stuck-at fault simulator.

    Args:
        circuit: circuit under test (validated and compiled once).
        backend: backend name (``"packed"``, ``"naive"``) or a
            :class:`~repro.engine.backend.SimulationBackend` instance; the
            registry default applies when omitted.
        fault_mode: force the packed grading mode (``"auto"``/``"lanes"``/
            ``"words"``/``"faults"``) on backends that grade through the
            packed kernels; ``None`` keeps the backend's own resolution
            (``REPRO_FAULT_MODE``, else per-shape ``auto``).  The naive
            reference has a single kernel and ignores the knob.
    """

    def __init__(
        self,
        circuit: Circuit,
        backend: Union[str, SimulationBackend, None] = None,
        fault_mode: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.backend = get_backend(backend)
        self._impl = self.backend.fault_simulator(circuit)
        if fault_mode is not None and hasattr(self._impl, "mode"):
            self._impl.mode = resolve_fault_mode(fault_mode)

    @property
    def last_run_stats(self) -> dict:
        """Work counters of the most recent :meth:`run` (see engine docs)."""
        return dict(self._impl.last_run_stats)

    # -- public API -------------------------------------------------------------
    def run(
        self,
        patterns: TestSet,
        faults: Sequence[StuckAtFault],
        drop_detected: bool = True,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``faults``.

        Args:
            patterns: fully specified pattern set over the circuit's test pins.
            faults: faults to grade.
            drop_detected: drop each fault once detected — later pattern
                blocks skip its cone entirely.  Detection results (including
                the first-detecting pattern index) are identical either way;
                the flag only controls whether the redundant work is done.

        Returns:
            A :class:`FaultSimulationResult`.
        """
        return self._impl.run(patterns, faults, drop_detected=drop_detected)

    def detects(self, pattern_bits: np.ndarray, fault: StuckAtFault) -> bool:
        """``True`` when a single fully specified pattern detects ``fault``."""
        patterns = TestSet.from_matrix(np.asarray(pattern_bits).reshape(1, -1))
        result = self.run(patterns, [fault])
        return fault in result.detected

    def coverage_of(self, patterns: TestSet, faults: Optional[Sequence[StuckAtFault]] = None) -> float:
        """Convenience wrapper returning only the coverage figure."""
        from repro.atpg.collapse import collapse_faults

        fault_list = list(faults) if faults is not None else collapse_faults(self.circuit)
        return self.run(patterns, fault_list).coverage
