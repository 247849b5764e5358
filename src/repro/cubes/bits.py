"""Bit-level encodings for tri-valued (0 / 1 / X) test data.

The whole library uses a single integer encoding so cubes can live in dense
``numpy.int8`` arrays:

===========  =====  ==========================================
symbol       value  meaning
===========  =====  ==========================================
``ZERO``     0      logic zero, specified
``ONE``      1      logic one, specified
``X``        2      don't care (unspecified)
===========  =====  ==========================================

Keeping ``ZERO``/``ONE`` at their numeric values means a fully specified
cube can be used directly as a binary vector (e.g. fed to the logic
simulator) without translation.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

ZERO: int = 0
ONE: int = 1
X: int = 2

#: dtype used for all cube storage.
BIT_DTYPE = np.int8

_CHAR_TO_BIT = {
    "0": ZERO,
    "1": ONE,
    "x": X,
    "X": X,
    "-": X,
    "d": X,
    "D": X,
}

_BIT_TO_CHAR = {ZERO: "0", ONE: "1", X: "X"}


def bit_from_char(char: str) -> int:
    """Convert a single character to its bit encoding.

    Accepts ``0``, ``1`` and the common don't-care spellings ``X``, ``x``,
    ``-`` and ``D`` (some ATPG tools emit ``-`` or ``D`` for unspecified
    positions in STIL/ASCII pattern files).

    Raises:
        ValueError: if the character is not a recognised bit symbol.
    """
    try:
        return _CHAR_TO_BIT[char]
    except KeyError:
        raise ValueError(f"not a valid test-cube bit character: {char!r}") from None


def bit_to_char(bit: int) -> str:
    """Convert a bit encoding back to its canonical character (``0``/``1``/``X``)."""
    try:
        return _BIT_TO_CHAR[int(bit)]
    except KeyError:
        raise ValueError(f"not a valid test-cube bit value: {bit!r}") from None


def bits_from_string(text: str) -> np.ndarray:
    """Parse a cube string such as ``"01XX1"`` into an ``int8`` array.

    Whitespace and underscores are ignored so callers can format long cubes
    readably (``"0101_XXXX_1100"``).
    """
    cleaned = [c for c in text if not c.isspace() and c != "_"]
    return np.array([bit_from_char(c) for c in cleaned], dtype=BIT_DTYPE)


def bits_to_string(bits: Iterable[int]) -> str:
    """Render an iterable of bit encodings as a compact ``0/1/X`` string."""
    return "".join(bit_to_char(b) for b in bits)


def is_specified(bits: np.ndarray) -> np.ndarray:
    """Return a boolean mask that is ``True`` where ``bits`` is ``0`` or ``1``."""
    arr = np.asarray(bits)
    return arr != X


def validate_bits(bits: np.ndarray) -> None:
    """Raise ``ValueError`` if ``bits`` contains anything other than 0/1/X.

    The codes are the consecutive integers ``ZERO..X``, so a range check on
    the integer array is the whole test (and far cheaper than a set lookup on
    every cell).
    """
    arr = np.asarray(bits)
    if arr.size and not (arr.min() >= ZERO and arr.max() <= X):
        bad = sorted(set(int(v) for v in np.unique(arr)) - {ZERO, ONE, X})
        raise ValueError(f"invalid bit values in cube data: {bad}")


def random_bits(length: int, x_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Generate a random cube of ``length`` bits with roughly ``x_fraction`` X bits.

    Specified positions are drawn uniformly from {0, 1}.  Used by the
    synthetic cube generator and by property-based tests.
    """
    if not 0.0 <= x_fraction <= 1.0:
        raise ValueError(f"x_fraction must be within [0, 1], got {x_fraction}")
    bits = rng.integers(0, 2, size=length).astype(BIT_DTYPE)
    mask = rng.random(length) < x_fraction
    bits[mask] = X
    return bits


def merge_bits(primary: np.ndarray, secondary: np.ndarray) -> List[int]:
    """Merge two compatible cubes bit-wise (specified bits win over X).

    Raises:
        ValueError: if the cubes conflict (one has 0 where the other has 1)
            or have different lengths.
    """
    a = np.asarray(primary)
    b = np.asarray(secondary)
    if a.shape != b.shape:
        raise ValueError("cannot merge cubes of different lengths")
    conflict = (a != b) & (a != X) & (b != X)
    if conflict.any():
        positions = np.flatnonzero(conflict)[:8].tolist()
        raise ValueError(f"cube conflict at positions {positions}")
    merged = np.where(a == X, b, a).astype(BIT_DTYPE)
    return merged.tolist()
