"""Gate types and their evaluation semantics.

Two evaluation styles are provided because the library needs both:

* :func:`evaluate_bool` — pattern-parallel two-valued evaluation on NumPy
  boolean arrays.  The logic simulator packs one pattern per array column, so
  a single call evaluates a gate for every pattern at once; this is what
  keeps the pure-Python switching-activity simulation workable for
  thousand-gate circuits.
* :func:`evaluate_ternary` — scalar three-valued (0/1/X) evaluation used by
  the PODEM ATPG, where unassigned primary inputs propagate X through the
  circuit.

The encoding of the ternary domain reuses the cube encoding
(:data:`repro.cubes.bits.X`), so ATPG results drop straight into
:class:`~repro.cubes.cube.TestCube` objects.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

import numpy as np

from repro.cubes.bits import ONE, X, ZERO


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


def evaluate_bool(gate_type: GateType, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a gate over pattern-parallel boolean arrays.

    Args:
        gate_type: the gate primitive (must not be a source or a DFF — the
            simulator resolves those separately).
        inputs: one boolean array per gate input, all the same shape.

    Returns:
        Boolean array of the gate output, one entry per pattern.
    """
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0].copy()
    if gate_type is GateType.NOT:
        return ~inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result &= value
        return ~result if gate_type is GateType.NAND else result
    if gate_type in (GateType.OR, GateType.NOR):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result |= value
        return ~result if gate_type is GateType.NOR else result
    if gate_type in (GateType.XOR, GateType.XNOR):
        result = inputs[0].copy()
        for value in inputs[1:]:
            result ^= value
        return ~result if gate_type is GateType.XNOR else result
    raise ValueError(f"cannot evaluate gate type {gate_type} as a logic function")


def _ternary_and(values: Sequence[int]) -> int:
    if any(v == ZERO for v in values):
        return ZERO
    if all(v == ONE for v in values):
        return ONE
    return X


def _ternary_or(values: Sequence[int]) -> int:
    if any(v == ONE for v in values):
        return ONE
    if all(v == ZERO for v in values):
        return ZERO
    return X


def _ternary_xor(values: Sequence[int]) -> int:
    if any(v == X for v in values):
        return X
    return int(np.bitwise_xor.reduce([int(v) for v in values]))


def _ternary_not(value: int) -> int:
    if value == X:
        return X
    return ONE - value


def evaluate_ternary(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a gate in three-valued (0/1/X) logic.

    Controlling values dominate: an AND with any 0 input is 0 even if other
    inputs are X, which is exactly the behaviour PODEM's implication step
    relies on.
    """
    values: List[int] = [int(v) for v in inputs]
    if gate_type in (GateType.BUF, GateType.DFF):
        return values[0]
    if gate_type is GateType.NOT:
        return _ternary_not(values[0])
    if gate_type is GateType.AND:
        return _ternary_and(values)
    if gate_type is GateType.NAND:
        return _ternary_not(_ternary_and(values))
    if gate_type is GateType.OR:
        return _ternary_or(values)
    if gate_type is GateType.NOR:
        return _ternary_not(_ternary_or(values))
    if gate_type is GateType.XOR:
        return _ternary_xor(values)
    if gate_type is GateType.XNOR:
        return _ternary_not(_ternary_xor(values))
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    raise ValueError(f"cannot evaluate gate type {gate_type} as a logic function")


def controlling_value(gate_type: GateType) -> int:
    """The input value that alone determines the gate output (AND->0, OR->1).

    Raises:
        ValueError: for gate types without a controlling value (XOR, NOT, ...).
    """
    if gate_type in (GateType.AND, GateType.NAND):
        return ZERO
    if gate_type in (GateType.OR, GateType.NOR):
        return ONE
    raise ValueError(f"{gate_type} has no controlling value")


def inversion_parity(gate_type: GateType) -> int:
    """1 if the gate inverts its 'natural' function (NAND/NOR/NOT/XNOR), else 0."""
    return 1 if gate_type in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR) else 0
