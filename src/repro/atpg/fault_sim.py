"""Fault simulation with fault dropping.

The simulator is *serial* in faults but *parallel* in patterns: the good
machine is evaluated once for the whole pattern batch, and each fault is then
re-evaluated only over its downstream cone with the fault site forced to the
stuck value.  Detection means any observable output (primary output or
flip-flop data input) differs from the good machine for at least one pattern.

This is the piece that grades every generated test set: coverage numbers in
the experiment harness and the "patterns keep detecting their target faults
after X-filling" integration tests both come from here.

:class:`FaultSimulator` is the compiled engine's
:class:`~repro.engine.fault.PackedFaultSimulator`: cone-restricted
re-evaluation on big-int lanes, real fault dropping, and the fault-parallel
kernel for many-faults/few-patterns runs (see :mod:`repro.engine.fault`).
It shares the circuit's process-wide compiled program.
"""

from __future__ import annotations

from repro.engine.fault import FaultSimulationResult, PackedFaultSimulator

__all__ = ["FaultSimulationResult", "FaultSimulator"]

#: Serial-fault / parallel-pattern stuck-at fault simulator.
FaultSimulator = PackedFaultSimulator
