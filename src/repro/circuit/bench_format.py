"""Reader and writer for the ISCAS/ITC ``.bench`` netlist format.

``.bench`` is the plain-text format the ISCAS-85/89 and ITC'99 benchmark
suites are distributed in::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = NAND(G0, G1)
    G17 = DFF(G10)

Every line is either a comment, an ``INPUT``/``OUTPUT`` declaration or an
assignment ``net = GATE(arg, ...)``.  The parser is deliberately liberal
about whitespace and case, since benchmark files in the wild differ.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Union

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError

_DECL_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([^)]+?)\s*\)\s*$", re.IGNORECASE)
_ASSIGN_RE = re.compile(
    r"^\s*(?P<output>[^=\s]+)\s*=\s*(?P<type>[A-Za-z0-9_]+)\s*\(\s*(?P<args>[^)]*)\s*\)\s*$"
)


class BenchParseError(ValueError):
    """Raised when a ``.bench`` file cannot be parsed."""

    def __init__(self, message: str, line_number: int, line: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number
        self.line = line


def parse_bench(text: str, name: str = "bench_circuit") -> Circuit:
    """Parse ``.bench`` text into a validated :class:`Circuit`.

    Args:
        text: the file contents.
        name: name given to the resulting circuit.

    Raises:
        BenchParseError: on malformed lines.
        CircuitError: if the netlist is structurally invalid (undriven nets,
            combinational cycles, duplicate drivers).
    """
    circuit = Circuit(name=name)
    outputs: List[str] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        declaration = _DECL_RE.match(line)
        if declaration:
            kind, net = declaration.group(1).upper(), declaration.group(2).strip()
            if kind == "INPUT":
                circuit.add_input(net)
            else:
                outputs.append(net)
            continue
        assignment = _ASSIGN_RE.match(line)
        if assignment:
            output = assignment.group("output").strip()
            try:
                gate_type = GateType.from_name(assignment.group("type"))
            except ValueError as exc:
                raise BenchParseError(str(exc), line_number, raw_line) from None
            args = [a.strip() for a in assignment.group("args").split(",") if a.strip()]
            if gate_type.is_source and args:
                raise BenchParseError("source gates take no arguments", line_number, raw_line)
            try:
                circuit.add_gate(output, gate_type, args)
            except (CircuitError, ValueError) as exc:
                raise BenchParseError(str(exc), line_number, raw_line) from None
            continue
        raise BenchParseError("unrecognised statement", line_number, raw_line)

    for net in outputs:
        circuit.add_output(net)
    circuit.validate()
    return circuit


def parse_bench_file(path: Union[str, Path], name: str = "") -> Circuit:
    """Parse a ``.bench`` file from disk; the circuit is named after the file."""
    path = Path(path)
    return parse_bench(path.read_text(), name=name or path.stem)


def write_bench(circuit: Circuit) -> str:
    """Serialise a circuit back to ``.bench`` text.

    The output round-trips through :func:`parse_bench` to an equivalent
    circuit (same inputs, outputs, gates and connectivity).
    """
    lines: List[str] = [f"# {circuit.name}"]
    lines.append(f"# {len(circuit.primary_inputs)} inputs")
    lines.append(f"# {len(circuit.primary_outputs)} outputs")
    lines.append(f"# {circuit.n_flip_flops} D-type flipflops")
    lines.append(f"# {circuit.n_gates} gates")
    lines.append("")
    for net in circuit.primary_inputs:
        lines.append(f"INPUT({net})")
    lines.append("")
    for net in circuit.primary_outputs:
        lines.append(f"OUTPUT({net})")
    lines.append("")
    for gate in circuit.gates.values():
        keyword = "BUFF" if gate.gate_type is GateType.BUF else gate.gate_type.name
        lines.append(f"{gate.output} = {keyword}({', '.join(gate.inputs)})")
    lines.append("")
    return "\n".join(lines)
