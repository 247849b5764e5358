"""Gate-level netlist substrate.

The paper's evaluation runs on synthesised ITC'99 circuits; this package
provides everything needed to stand in for that flow offline:

* :mod:`gates` — the gate types,
* :mod:`netlist` — the :class:`Circuit` container with levelisation, fanout
  analysis and the full-scan combinational view,
* :mod:`bench_format` — reader/writer for the ISCAS/ITC ``.bench`` netlist
  format,
* :mod:`generator` — a synthetic sequential-circuit generator used to build
  ITC'99-sized stand-ins,
* :mod:`library` — small hand-written reference circuits (c17, a b01-style
  FSM, a counter) plus the ITC'99-profile factory.

Simulation runs on the compiled engine of :mod:`repro.engine`.
"""

from repro.circuit.bench_format import parse_bench, parse_bench_file, write_bench
from repro.circuit.gates import GateType
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import (
    b01_like_fsm,
    c17,
    itc99_like,
    ripple_counter,
    toy_pipeline,
)
from repro.circuit.netlist import Circuit, Gate

__all__ = [
    "GateType",
    "Gate",
    "Circuit",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "CircuitSpec",
    "generate_circuit",
    "c17",
    "b01_like_fsm",
    "ripple_counter",
    "toy_pipeline",
    "itc99_like",
]
