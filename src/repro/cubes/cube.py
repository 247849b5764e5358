"""Core cube containers: :class:`TestCube` and :class:`TestSet`.

``TestCube`` wraps a single partially specified pattern; ``TestSet`` wraps an
*ordered* sequence of equal-length cubes in a dense ``(n_patterns, n_pins)``
``int8`` matrix.  The ordering of a ``TestSet`` is semantically meaningful:
the peak-toggle objective is defined over *adjacent* patterns, so reordering
a set changes its cost.  Orderings therefore return new ``TestSet`` objects
(or permutations) rather than mutating in place.

The paper works with the transposed view — an ``m x n`` matrix ``A`` whose
*rows* are input pins and *columns* are patterns.  :meth:`TestSet.pin_matrix`
exposes that view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.cubes.bits import (
    BIT_DTYPE,
    ONE,
    X,
    ZERO,
    bits_from_string,
    bits_to_string,
    validate_bits,
)

CubeLike = Union["TestCube", str, Sequence[int], np.ndarray]


@dataclass(frozen=True)
class TestCube:
    """A single partially specified scan pattern.

    Attributes:
        bits: ``int8`` array of 0/1/X encodings, one entry per input pin
            (primary inputs followed by scan-cell values, in scan order).
        name: optional label, typically the target fault that produced the
            cube (useful when tracing ATPG output).
    """

    bits: np.ndarray
    name: Optional[str] = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=BIT_DTYPE).reshape(-1)
        validate_bits(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_string(cls, text: str, name: Optional[str] = None) -> "TestCube":
        """Build a cube from a ``"01XX1"``-style string."""
        return cls(bits_from_string(text), name=name)

    @classmethod
    def fully_x(cls, length: int, name: Optional[str] = None) -> "TestCube":
        """Return a cube of ``length`` unspecified bits."""
        return cls(np.full(length, X, dtype=BIT_DTYPE), name=name)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def __getitem__(self, index: int) -> int:
        return int(self.bits[index])

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestCube):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return f"TestCube({self.to_string()!r}{label})"

    # -- queries -----------------------------------------------------------
    def to_string(self) -> str:
        """Render the cube as a ``0/1/X`` string."""
        return bits_to_string(self.bits)

    @property
    def x_count(self) -> int:
        """Number of don't-care positions."""
        return int(np.count_nonzero(self.bits == X))

    @property
    def specified_count(self) -> int:
        """Number of positions carrying a 0 or 1."""
        return len(self) - self.x_count

    @property
    def x_fraction(self) -> float:
        """Fraction of positions that are don't-cares (0.0 for an empty cube)."""
        return self.x_count / len(self) if len(self) else 0.0

    def is_fully_specified(self) -> bool:
        """``True`` when the cube contains no X bits."""
        return self.x_count == 0

    def specified_positions(self) -> np.ndarray:
        """Indices of the specified (non-X) positions."""
        return np.flatnonzero(self.bits != X)

    # -- cube algebra --------------------------------------------------------
    def is_compatible(self, other: "TestCube") -> bool:
        """``True`` when no position is 0 in one cube and 1 in the other."""
        if len(self) != len(other):
            return False
        a, b = self.bits, other.bits
        return not bool(((a != b) & (a != X) & (b != X)).any())

    def merge(self, other: "TestCube") -> "TestCube":
        """Intersect two compatible cubes (specified bits win over X).

        Raises:
            ValueError: if the cubes conflict or have different lengths.
        """
        if len(self) != len(other):
            raise ValueError("cannot merge cubes of different lengths")
        a, b = self.bits, other.bits
        conflict = (a != b) & (a != X) & (b != X)
        if conflict.any():
            raise ValueError("cubes conflict; cannot merge")
        return TestCube(np.where(a == X, b, a), name=self.name or other.name)

    def covers(self, other: "TestCube") -> bool:
        """``True`` when every specified bit of ``self`` matches ``other``.

        ``other`` must be at least as specified as ``self`` at those
        positions, i.e. ``other`` is an instance of the cube ``self``.
        """
        if len(self) != len(other):
            return False
        spec = self.bits != X
        return bool(np.all(other.bits[spec] == self.bits[spec]))

    def filled_with(self, value: int) -> "TestCube":
        """Return a copy with every X replaced by ``value`` (0 or 1)."""
        if value not in (ZERO, ONE):
            raise ValueError("fill value must be 0 or 1")
        bits = self.bits.copy()
        bits[bits == X] = value
        return TestCube(bits, name=self.name)


class TestSet:
    """An ordered sequence of equal-length test cubes.

    The backing store is a ``(n_patterns, n_pins)`` ``int8`` matrix; row ``i``
    is pattern ``i`` in application order.  The class is deliberately
    immutable-ish: transformation helpers (:meth:`reordered`, :meth:`filled`,
    :meth:`with_pattern`) return new instances.

    Args:
        patterns: cubes, cube strings, or per-pattern bit sequences.  All
            entries must have the same length.
        names: optional per-pattern labels (defaults to the cube names).
    """

    def __init__(
        self,
        patterns: Iterable[CubeLike],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        rows: List[np.ndarray] = []
        inferred_names: List[Optional[str]] = []
        for entry in patterns:
            if isinstance(entry, TestCube):
                rows.append(np.asarray(entry.bits, dtype=BIT_DTYPE))
                inferred_names.append(entry.name)
            elif isinstance(entry, str):
                rows.append(bits_from_string(entry))
                inferred_names.append(None)
            else:
                arr = np.asarray(entry, dtype=BIT_DTYPE).reshape(-1)
                validate_bits(arr)
                rows.append(arr)
                inferred_names.append(None)
        if not rows:
            self._data = np.empty((0, 0), dtype=BIT_DTYPE)
        else:
            lengths = {row.shape[0] for row in rows}
            if len(lengths) != 1:
                raise ValueError(f"all cubes must have the same length, got lengths {sorted(lengths)}")
            self._data = np.vstack(rows).astype(BIT_DTYPE)
        if names is not None:
            names = list(names)
            if len(names) != self._data.shape[0]:
                raise ValueError("names must have one entry per pattern")
            self._names: List[Optional[str]] = names
        else:
            self._names = inferred_names
        self._data.setflags(write=False)

    # -- alternative constructors -------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> "TestSet":
        """Build a set from an ``(n_patterns, n_pins)`` matrix of 0/1/X codes."""
        matrix = np.asarray(matrix, dtype=BIT_DTYPE)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        validate_bits(matrix)
        instance = cls.__new__(cls)
        instance._data = matrix.copy()
        instance._data.setflags(write=False)
        if names is not None:
            names = list(names)
            if len(names) != matrix.shape[0]:
                raise ValueError("names must have one entry per pattern")
            instance._names = names
        else:
            instance._names = [None] * matrix.shape[0]
        return instance

    @classmethod
    def from_pin_matrix(cls, pin_matrix: np.ndarray) -> "TestSet":
        """Build a set from the paper's ``m x n`` pin-major matrix ``A``."""
        return cls.from_matrix(np.asarray(pin_matrix).T)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "TestSet":
        """Build a set from an iterable of ``0/1/X`` strings."""
        return cls(list(strings))

    # -- protocol -------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __getitem__(self, index: int) -> TestCube:
        return TestCube(self._data[index].copy(), name=self._names[index])

    def __iter__(self) -> Iterator[TestCube]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestSet):
            return NotImplemented
        return bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TestSet(n_patterns={len(self)}, n_pins={self.n_pins})"

    # -- views ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(n_patterns, n_pins)`` view of the data."""
        return self._data

    def pin_matrix(self) -> np.ndarray:
        """The paper's ``m x n`` matrix ``A`` (rows = pins, columns = patterns)."""
        return self._data.T.copy()

    @property
    def n_pins(self) -> int:
        """Number of input pins (cube length)."""
        return int(self._data.shape[1])

    @property
    def names(self) -> List[Optional[str]]:
        """Per-pattern labels (copies; mutation does not affect the set)."""
        return list(self._names)

    # -- statistics ---------------------------------------------------------------
    @property
    def x_count(self) -> int:
        """Total number of X bits in the set."""
        return int(np.count_nonzero(self._data == X))

    @property
    def x_fraction(self) -> float:
        """Fraction of all bits that are X (the paper's Table I ``X %`` metric)."""
        total = self._data.size
        return self.x_count / total if total else 0.0

    def x_counts_per_pattern(self) -> np.ndarray:
        """Number of X bits in each pattern, in order."""
        return np.count_nonzero(self._data == X, axis=1)

    def is_fully_specified(self) -> bool:
        """``True`` when no pattern contains an X bit."""
        return self.x_count == 0

    # -- transformations ------------------------------------------------------------
    def reordered(self, permutation: Sequence[int]) -> "TestSet":
        """Return a new set with patterns permuted by ``permutation``.

        ``permutation[i]`` gives the index (into the current order) of the
        pattern that should appear at position ``i`` of the new set.

        Raises:
            ValueError: if ``permutation`` is not a permutation of
                ``range(len(self))``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (len(self),) or sorted(perm.tolist()) != list(range(len(self))):
            raise ValueError("permutation must contain each pattern index exactly once")
        names = [self._names[i] for i in perm]
        return TestSet.from_matrix(self._data[perm], names=names)

    def with_pattern(self, index: int, cube: TestCube) -> "TestSet":
        """Return a copy with pattern ``index`` replaced by ``cube``."""
        if len(cube) != self.n_pins:
            raise ValueError("replacement cube has the wrong length")
        data = self._data.copy()
        data[index] = cube.bits
        names = list(self._names)
        names[index] = cube.name
        return TestSet.from_matrix(data, names=names)

    def subset(self, indices: Sequence[int]) -> "TestSet":
        """Return a new set containing only ``indices``, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return TestSet.from_matrix(self._data[idx], names=[self._names[i] for i in idx])

    def filled(self, fill_matrix: np.ndarray) -> "TestSet":
        """Return a fully specified copy whose data is ``fill_matrix``.

        The fill matrix must agree with every specified bit of the original
        set and must not contain any X — this is the post-condition every
        X-filling algorithm has to satisfy, so it is enforced here once.

        Raises:
            ValueError: if the fill flips a specified (care) bit or leaves an
                X behind.
        """
        fill = np.asarray(fill_matrix, dtype=BIT_DTYPE)
        if fill.shape != self._data.shape:
            raise ValueError("fill matrix has the wrong shape")
        if (fill == X).any():
            raise ValueError("fill matrix still contains X bits")
        # Elementwise, so a transposed (F-ordered) fill is read in place.
        if ((fill != self._data) & (self._data != X)).any():
            raise ValueError("fill matrix modifies specified (care) bits")
        return TestSet.from_matrix(fill, names=self._names)

    def to_strings(self) -> List[str]:
        """Render every pattern as a ``0/1/X`` string, in order."""
        return [bits_to_string(row) for row in self._data]

    def copy(self) -> "TestSet":
        """Return an independent copy of the set."""
        return TestSet.from_matrix(self._data.copy(), names=self._names)
