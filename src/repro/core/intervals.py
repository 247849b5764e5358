"""Mapping test cubes to Bottleneck Coloring Problem intervals (paper §V-C).

Terminology
-----------
The ordered cube set is viewed as the paper's pin-major matrix ``A`` with one
row per input pin and one column per pattern.  A *boundary* ``j`` is the gap
between pattern ``j`` and pattern ``j + 1`` (0-based, so a set of ``n``
patterns has ``n - 1`` boundaries).  The peak-toggle objective is the maximum,
over boundaries, of the number of rows whose value changes across that
boundary.

Per row, the specified bits split the pattern axis into stretches:

* ``0 X..X 0`` and ``1 X..X 1`` stretches are filled with the surrounding
  value during preprocessing — the paper proves an optimal solution exists
  that does this, because it contributes zero toggles.
* Leading/trailing X stretches (and all-X rows) are likewise filled with the
  nearest specified value (or 0 for an all-X row); they can always be made
  toggle-free.
* ``0 X..X 1`` and ``1 X..X 0`` stretches must toggle exactly once somewhere
  inside the stretch.  Each becomes a :class:`ToggleInterval` spanning the
  boundaries at which that single toggle may be placed.
* Two adjacent specified bits that differ produce an unavoidable toggle at
  that boundary; these accumulate into the *base toggle* vector.  The paper's
  BCP ignores base toggles; the base-load-aware solver in :mod:`repro.core.bcp`
  uses them to optimise the true objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cubes.bits import X, ZERO
from repro.cubes.cube import TestSet


@dataclass(frozen=True)
class ToggleInterval:
    """One mandatory toggle whose boundary position is still free.

    Attributes:
        start: first boundary index (inclusive) at which the toggle may occur.
        end: last boundary index (inclusive).  ``start <= end`` always holds.
        row: pin-row index the stretch belongs to.
        left_col: column of the specified bit on the left of the stretch.
        right_col: column of the specified bit on the right of the stretch.
        left_value: value (0/1) of the left specified bit.
        right_value: value of the right specified bit (always ``1 - left_value``).
    """

    start: int
    end: int
    row: int
    left_col: int
    right_col: int
    left_value: int
    right_value: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")
        if self.left_value == self.right_value:
            raise ValueError("a toggle interval must join two differing values")

    @property
    def length(self) -> int:
        """Number of candidate boundaries (colours) for this toggle."""
        return self.end - self.start + 1


def fill_runs(
    out: np.ndarray,
    rows: np.ndarray,
    starts: Union[int, np.ndarray],
    stops: Union[int, np.ndarray],
    values: np.ndarray,
) -> None:
    """``out[rows[i], starts[i]:stops[i]] = values[i]`` for every run, in one pass.

    ``starts`` and ``stops`` may be scalars shared by every run; empty runs
    are skipped.
    """
    starts = np.broadcast_to(starts, rows.shape)
    lengths = np.broadcast_to(stops, rows.shape) - starts
    total = int(lengths.sum())
    if total == 0:
        return
    # Cell j of the concatenated runs sits at its run's flat start plus
    # j minus the number of cells in the runs before it.
    shift = rows * out.shape[1] + starts - (np.cumsum(lengths) - lengths)
    np.put(out, np.arange(total) + np.repeat(shift, lengths), np.repeat(values, lengths))


class Stretches:
    """The don't-care stretches of a 0/1/X matrix, classified in one vectorised pass.

    Each row is read left to right.  Two consecutive specified bits of a
    row form a *pair*; the stretch between them is columns
    ``left + 1 .. right - 1`` (empty when the bits are adjacent).  Pairs
    are kept in row-major, left-to-right order, which is the order the
    per-row loops of the paper's preprocessing discover them in.  The X
    runs before a row's first and after its last specified bit, and the
    all-X rows, are the *ends* (:meth:`fill_ends`).

    Attributes:
        shape: ``(n_rows, n_cols)`` of the classified matrix.
        rows / left / right: row, left column and right column of every pair.
        left_values / right_values: the two specified values of every pair.
    """

    def __init__(
        self, shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        self.shape = shape
        self._bits = (rows, cols, vals)
        self._same_row = rows[1:] == rows[:-1]
        same = self._same_row
        self.rows = rows[:-1][same]
        self.left = cols[:-1][same]
        self.right = cols[1:][same]
        self.left_values = vals[:-1][same]
        self.right_values = vals[1:][same]

    @classmethod
    def of(cls, matrix: np.ndarray) -> "Stretches":
        """Classify every stretch of ``matrix`` (rows are read left to right)."""
        rows, cols = np.nonzero(matrix != X)
        return cls(matrix.shape, rows, cols, matrix[rows, cols])

    @property
    def free(self) -> np.ndarray:
        """Pairs bounding a ``0X..X1`` / ``1X..X0`` stretch: one toggle, free position."""
        return (self.left_values != self.right_values) & (self.right > self.left + 1)

    @property
    def held(self) -> np.ndarray:
        """Pairs bounding a ``0X..X0`` / ``1X..X1`` stretch: held at that value."""
        return (self.left_values == self.right_values) & (self.right > self.left + 1)

    def base_toggles(self) -> np.ndarray:
        """Per-boundary count of adjacent specified bits that differ."""
        fixed = (self.left_values != self.right_values) & (self.right == self.left + 1)
        n_boundaries = max(self.shape[1] - 1, 0)
        return np.bincount(self.left[fixed], minlength=n_boundaries).astype(np.int64)

    def fill_ends(self, out: np.ndarray) -> None:
        """Hold every leading/trailing X run at its nearest specified value.

        All-X rows become zero (holding one constant is as good as the other).
        """
        rows, cols, vals = self._bits
        first = np.ones(rows.size, dtype=bool)
        first[1:] = ~self._same_row
        last = np.ones(rows.size, dtype=bool)
        last[:-1] = ~self._same_row
        specified = np.zeros(self.shape[0], dtype=bool)
        specified[rows] = True
        out[~specified] = ZERO
        fill_runs(out, rows[first], 0, cols[first], vals[first])
        fill_runs(out, rows[last], cols[last] + 1, self.shape[1], vals[last])


@dataclass
class ExtractionResult:
    """Output of :func:`extract_intervals`.

    The toggle intervals are held as arrays, one entry per interval in
    row-major discovery order; :attr:`intervals` builds the
    :class:`ToggleInterval` objects on first access only.

    Attributes:
        rows: pin row of every interval.
        left_cols / right_cols: columns of the specified bits around it.
        left_values: value (0/1) of the left specified bit (the right one
            is always the other value).
        base_toggles: per-boundary count of unavoidable toggles coming from
            adjacent specified bits that differ (length ``n_patterns - 1``).
        prefilled: pin-major matrix with every preprocessing fill applied.
            The only remaining X bits lie strictly inside toggle intervals.
        n_patterns: number of patterns (columns of ``prefilled``).
        n_pins: number of pin rows.
    """

    rows: np.ndarray
    left_cols: np.ndarray
    right_cols: np.ndarray
    left_values: np.ndarray
    base_toggles: np.ndarray
    prefilled: np.ndarray
    n_patterns: int
    n_pins: int

    @property
    def starts(self) -> np.ndarray:
        """First candidate boundary of every interval."""
        return self.left_cols

    @property
    def ends(self) -> np.ndarray:
        """Last candidate boundary of every interval."""
        return self.right_cols - 1

    @property
    def n_intervals(self) -> int:
        """Number of toggle intervals."""
        return int(self.rows.size)

    @cached_property
    def intervals(self) -> List[ToggleInterval]:
        """The toggle intervals as objects, in row-major discovery order."""
        return [
            ToggleInterval(
                start=left,
                end=right - 1,
                row=row,
                left_col=left,
                right_col=right,
                left_value=value,
                right_value=1 - value,
            )
            for row, left, right, value in zip(
                self.rows.tolist(),
                self.left_cols.tolist(),
                self.right_cols.tolist(),
                self.left_values.tolist(),
            )
        ]

    @property
    def n_boundaries(self) -> int:
        """Number of pattern boundaries (colours available to the BCP)."""
        return max(self.n_patterns - 1, 0)

    @property
    def base_peak(self) -> int:
        """Largest per-boundary unavoidable toggle count."""
        return int(self.base_toggles.max()) if self.base_toggles.size else 0


@dataclass(frozen=True)
class ExtractionPlan:
    """Permutation-reusable skeleton of a cube set's BCP extraction.

    The *set* of specified bits per pin row never changes when patterns are
    reordered — only their column positions do.  This plan captures that
    invariant structure once (row id, original column and value of every
    specified bit, in row-major order) so the interval arrays of **any**
    permutation of the same cube set can be derived with a handful of
    vectorised NumPy passes instead of re-extracting the permuted set.

    This is what lets the I-Ordering search evaluate each candidate
    interleave size ``k`` without re-extracting; together with
    :func:`repro.core.bcp.weighted_peak_bound` it forms the fast evaluation
    path of :func:`repro.core.ordering.interleaved_ordering` (see the
    ``bench_core.py`` micro-benchmark for the measured win).

    Attributes:
        n_pins / n_patterns: cube-set shape.
        spec_rows: pin-row index of every specified bit (row-major order).
        spec_cols: original pattern index of every specified bit.
        spec_vals: value (0/1) of every specified bit.
    """

    n_pins: int
    n_patterns: int
    spec_rows: np.ndarray
    spec_cols: np.ndarray
    spec_vals: np.ndarray

    @classmethod
    def from_test_set(cls, patterns: TestSet) -> "ExtractionPlan":
        """Build the plan for ``patterns`` (one pass over the pin matrix)."""
        pin = patterns.pin_matrix()
        rows, cols = np.nonzero(pin != X)
        return cls(
            n_pins=int(pin.shape[0]),
            n_patterns=int(pin.shape[1]),
            spec_rows=rows.astype(np.int64),
            spec_cols=cols.astype(np.int64),
            spec_vals=pin[rows, cols].astype(np.int64),
        )

    def interval_arrays(
        self, permutation: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, base_toggles)`` of the (permuted) cube set.

        The arrays are exactly what :func:`extract_intervals` would produce
        for ``patterns.reordered(permutation)`` — same intervals in the same
        row-major discovery order, same base-toggle vector — minus the
        prefilled matrix (which only the final reconstruction needs).

        Args:
            permutation: original pattern indices in their new order (the
                convention of :meth:`TestSet.reordered`); ``None`` evaluates
                the plan's own order.
        """
        if permutation is None:
            rows, cols, vals = self.spec_rows, self.spec_cols, self.spec_vals
        else:
            perm = np.asarray(permutation, dtype=np.int64)
            if perm.shape[0] != self.n_patterns:
                raise ValueError(
                    f"permutation length {perm.shape[0]} != {self.n_patterns} patterns"
                )
            position = np.empty(self.n_patterns, dtype=np.int64)
            position[perm] = np.arange(self.n_patterns, dtype=np.int64)
            cols = position[self.spec_cols]
            # Stable (row, new column) order reproduces extract_intervals'
            # row-major, left-to-right interval discovery order exactly.
            order = np.lexsort((cols, self.spec_rows))
            rows, cols, vals = self.spec_rows[order], cols[order], self.spec_vals[order]

        stretches = Stretches((self.n_pins, self.n_patterns), rows, cols, vals)
        free = stretches.free
        return stretches.left[free], stretches.right[free] - 1, stretches.base_toggles()


def extract_intervals(patterns: TestSet) -> ExtractionResult:
    """Preprocess a cube set and extract its BCP instance.

    The function implements the preprocessing loop and the interval-creation
    loop of §V-C — vectorised over every row at once by :class:`Stretches` —
    plus the (implicit in the paper) handling of leading/trailing X runs and
    all-X rows, which never need to toggle.

    Args:
        patterns: the *ordered* cube set.  Ordering matters; run an ordering
            algorithm first if desired.

    Returns:
        An :class:`ExtractionResult` whose ``prefilled`` matrix contains X
        bits only inside the returned intervals.
    """
    pin = patterns.pin_matrix()
    n_pins, n_patterns = pin.shape
    stretches = Stretches.of(pin)
    stretches.fill_ends(pin)
    # 0X..X0 / 1X..X1: fill with the common value (zero toggles).
    held = stretches.held
    fill_runs(
        pin,
        stretches.rows[held],
        stretches.left[held] + 1,
        stretches.right[held],
        stretches.left_values[held],
    )
    # 0X..X1 / 1X..X0: exactly one toggle, position free in boundaries
    # [left, right - 1].
    free = stretches.free
    return ExtractionResult(
        rows=stretches.rows[free],
        left_cols=stretches.left[free],
        right_cols=stretches.right[free],
        left_values=stretches.left_values[free],
        base_toggles=stretches.base_toggles(),
        prefilled=pin,
        n_patterns=n_patterns,
        n_pins=n_pins,
    )


def apply_assignment(extraction: ExtractionResult, colors: np.ndarray) -> np.ndarray:
    """Materialise a BCP colour assignment into a fully specified pin matrix.

    For an interval coloured ``j`` the paper's reconstruction (§V-D) keeps the
    left value up to and including column ``j`` and the right value from
    column ``j + 1`` onwards.

    Args:
        extraction: result of :func:`extract_intervals`.
        colors: one boundary index per interval, in the same order as
            ``extraction.intervals``.

    Returns:
        A fully specified pin-major matrix.

    Raises:
        ValueError: if an assigned colour falls outside its interval, or if
            any X bit remains after reconstruction.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (extraction.n_intervals,):
        raise ValueError("one colour per interval is required")
    starts, ends = extraction.starts, extraction.ends
    outside = (colors < starts) | (colors > ends)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"colour {colors[i]} outside interval [{starts[i]}, {ends[i]}]")
    filled = extraction.prefilled.copy()
    # The X cells left after preprocessing are exactly the interval
    # interiors, and row-major order visits them interval by interval.
    cells = np.flatnonzero(filled == X)
    gaps = extraction.right_cols - extraction.left_cols - 1
    if cells.size != int(gaps.sum()):
        raise ValueError("reconstruction left unspecified bits behind")
    owner = np.repeat(np.arange(gaps.size), gaps)
    left_values = extraction.left_values[owner]
    past_toggle = cells % extraction.n_patterns > colors[owner]
    np.put(filled, cells, np.where(past_toggle, 1 - left_values, left_values))
    return filled
