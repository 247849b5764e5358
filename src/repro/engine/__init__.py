"""Compiled bit-packed simulation engine.

The engine compiles a :class:`~repro.circuit.netlist.Circuit` once into a
flat array program (:mod:`repro.engine.compile`; :func:`compiled_program`
keeps one per circuit and process), evaluates it bit-parallel with one
big-int lane per net holding every pattern (:mod:`repro.engine.packed`),
and grades fault lists with cone-restricted re-evaluation and real fault
dropping, one fault per pass on pattern lanes (``lanes``) or 64 faults per
word (``faults``), whichever the run's shape calls for
(:mod:`repro.engine.fault`).  It is the only simulation engine: the ATPG,
power and experiment layers all run on it, and the straightforward
references it is checked against live in ``tests/reference_engines.py``.
Everything runs in the calling process.
"""

from repro.engine.compile import CompiledCircuit, compile_circuit, compiled_program
from repro.engine.fault import (
    DROP_BLOCK_PATTERNS,
    FAULT_WORD_LANES,
    FAULTS_MODE_MAX_PATTERNS,
    FAULTS_MODE_FAULTS_PER_PATTERN,
    FaultSimulationResult,
    PackedFaultSimulator,
    fault_lane_mask,
    resolve_grading_kernel,
)
from repro.engine.packed import PackedLogicSimulator
from repro.engine.ternary import CompiledTernaryPodem

__all__ = [
    "DROP_BLOCK_PATTERNS",
    "FAULT_WORD_LANES",
    "FAULTS_MODE_MAX_PATTERNS",
    "FAULTS_MODE_FAULTS_PER_PATTERN",
    "CompiledCircuit",
    "CompiledTernaryPodem",
    "FaultSimulationResult",
    "PackedFaultSimulator",
    "PackedLogicSimulator",
    "compile_circuit",
    "compiled_program",
    "fault_lane_mask",
    "resolve_grading_kernel",
]
