"""Gate types: the ``.bench`` vocabulary plus constants.

The compiled engine (:mod:`repro.engine.compile`) maps each type to an
opcode and evaluates it there; the per-gate reference evaluations the
engine is checked against live in ``tests/reference_engines.py``.
"""

from __future__ import annotations

import enum


class GateType(enum.Enum):
    """Supported gate primitives (the ``.bench`` vocabulary plus constants)."""

    INPUT = "INPUT"
    BUF = "BUFF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    DFF = "DFF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @classmethod
    def from_name(cls, name: str) -> "GateType":
        """Parse a gate-type keyword as found in ``.bench`` files."""
        key = name.strip().upper()
        aliases = {"BUFF": "BUF", "BUFFER": "BUF", "INV": "NOT", "FF": "DFF", "DFFSR": "DFF"}
        key = aliases.get(key, key)
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unsupported gate type: {name!r}") from None

    @property
    def is_sequential(self) -> bool:
        """``True`` for state elements (DFFs)."""
        return self in _SEQUENTIAL

    @property
    def is_source(self) -> bool:
        """``True`` for gates with no logic inputs (primary inputs, constants)."""
        return self in _SOURCES

    def arity_ok(self, n_inputs: int) -> bool:
        """Check whether ``n_inputs`` is a legal fan-in for this gate type."""
        fixed = _FIXED_ARITY.get(self)
        return n_inputs >= 2 if fixed is None else n_inputs == fixed


# Plain set and dict lookups: enum-attribute comparisons made these
# predicates a measurable share of building a full-scale netlist.
_SEQUENTIAL = frozenset({GateType.DFF})
_SOURCES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})
#: Fan-in of the fixed-arity types; every other type takes two or more.
_FIXED_ARITY = {
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.DFF: 1,
}
