"""Toggle and don't-care metrics over cubes and cube sets.

Two families of metrics live here:

* **Toggle metrics** (:func:`hamming_distance`, :func:`toggle_profile`,
  :func:`peak_toggles`, :func:`total_toggles`) evaluate *filled* pattern
  sequences.  The paper's objective is the peak of the toggle profile:
  ``max_j hd(T_j, T_{j+1})``.
* **Don't-care metrics** (:func:`x_density`, :func:`stretch_histogram`,
  :class:`StretchStats`) characterise how much freedom an X-filling
  algorithm has.  Table I of the paper reports X density per benchmark and
  Fig. 2(c) compares the X-run-length ("stretch") distribution of the pin
  matrix under different orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

from repro.cubes.bits import X
from repro.cubes.cube import TestCube, TestSet

ArrayLike = Union[np.ndarray, TestCube]


def _as_bits(value: ArrayLike) -> np.ndarray:
    if isinstance(value, TestCube):
        return value.bits
    return np.asarray(value)


def hamming_distance(first: ArrayLike, second: ArrayLike) -> int:
    """Hamming distance between two fully specified patterns.

    Raises:
        ValueError: if either pattern still contains X bits (the distance
            between partially specified cubes is not well defined; use
            :func:`conflict_distance` for that).
    """
    a, b = _as_bits(first), _as_bits(second)
    if a.shape != b.shape:
        raise ValueError("patterns must have the same length")
    if (a == X).any() or (b == X).any():
        raise ValueError("hamming_distance requires fully specified patterns")
    return int(np.count_nonzero(a != b))


def conflict_distance(first: ArrayLike, second: ArrayLike) -> int:
    """Number of positions where both cubes are specified and differ.

    This is the *unavoidable* contribution of a pattern pair to the toggle
    count: no X-filling can remove these toggles.  It is the natural
    distance measure for ordering heuristics that run before filling
    (the X-Stat ordering reconstruction uses it).
    """
    a, b = _as_bits(first), _as_bits(second)
    if a.shape != b.shape:
        raise ValueError("patterns must have the same length")
    return int(np.count_nonzero((a != b) & (a != X) & (b != X)))


def toggle_profile(patterns: TestSet) -> np.ndarray:
    """Per-boundary toggle counts of a fully specified pattern sequence.

    Entry ``j`` is the Hamming distance between pattern ``j`` and pattern
    ``j + 1``; the result has ``len(patterns) - 1`` entries (empty for sets
    with fewer than two patterns).
    """
    data = patterns.matrix
    if len(patterns) < 2:
        return np.zeros(0, dtype=np.int64)
    if (data == X).any():
        raise ValueError("toggle_profile requires a fully specified pattern set")
    return np.count_nonzero(data[1:] != data[:-1], axis=1).astype(np.int64)


def peak_toggles(patterns: TestSet) -> int:
    """Peak (maximum) number of input toggles between adjacent patterns.

    This is the quantity every table in the paper reports ("peak input
    toggles").  Returns 0 for sets with fewer than two patterns.
    """
    profile = toggle_profile(patterns)
    return int(profile.max()) if profile.size else 0


def total_toggles(patterns: TestSet) -> int:
    """Total number of input toggles over the whole sequence (average-power proxy)."""
    profile = toggle_profile(patterns)
    return int(profile.sum()) if profile.size else 0


def specified_bit_count(patterns: TestSet) -> int:
    """Number of care (0/1) bits in the set."""
    return patterns.matrix.size - patterns.x_count


def x_density(patterns: TestSet) -> float:
    """Fraction of bits that are don't-cares (Table I's ``X %`` as a fraction)."""
    return patterns.x_fraction


@dataclass
class StretchStats:
    """Distribution of X-run lengths ("don't-care stretches") in a pin matrix.

    A *stretch* is a maximal run of consecutive X bits within one pin row of
    the ordered pattern matrix.  Longer stretches give the X-filling
    algorithm more freedom to spread toggles, which is exactly what
    I-Ordering tries to create (Fig. 2(c) of the paper).

    Attributes:
        histogram: mapping from stretch length to number of stretches of
            that length.
        n_rows: number of pin rows analysed.
        n_columns: number of patterns in the ordering.
    """

    histogram: Dict[int, int] = field(default_factory=dict)
    n_rows: int = 0
    n_columns: int = 0

    @property
    def total_stretches(self) -> int:
        """Total number of maximal X runs."""
        return sum(self.histogram.values())

    @property
    def total_x_bits(self) -> int:
        """Total number of X bits covered by the stretches."""
        return sum(length * count for length, count in self.histogram.items())

    @property
    def mean_length(self) -> float:
        """Mean stretch length (0.0 when there are no stretches)."""
        total = self.total_stretches
        return self.total_x_bits / total if total else 0.0

    @property
    def max_length(self) -> int:
        """Length of the longest stretch (0 when there are none)."""
        return max(self.histogram) if self.histogram else 0

    def cumulative_at_least(self, length: int) -> int:
        """Number of stretches with length greater than or equal to ``length``."""
        return sum(count for size, count in self.histogram.items() if size >= length)

    def bucketed(self, edges: tuple = (1, 2, 4, 8, 16, 32, 64)) -> Dict[str, int]:
        """Group the histogram into human-readable buckets for reporting."""
        buckets: Dict[str, int] = {}
        edges = tuple(sorted(edges))
        for index, low in enumerate(edges):
            high = edges[index + 1] - 1 if index + 1 < len(edges) else None
            if high is None:
                label = f">={low}"
                count = sum(c for size, c in self.histogram.items() if size >= low)
            else:
                label = f"{low}-{high}" if high > low else f"{low}"
                count = sum(c for size, c in self.histogram.items() if low <= size <= high)
            buckets[label] = count
        return buckets


def stretch_histogram(patterns: TestSet) -> StretchStats:
    """Compute the X-stretch statistics of an ordered pattern set.

    The analysis runs over the pin-major matrix (one row per input pin,
    columns in pattern order), mirroring the matrix ``A`` of the paper.
    The X mask gets a non-X column on each side of every pin row, so in the
    flattened mask no run crosses into the next row and every run has a
    rising and a falling edge; a run's length is the distance between them.
    """
    n_columns, n_rows = patterns.matrix.shape
    mask = np.zeros((n_rows, n_columns + 2), dtype=np.int8)
    mask[:, 1:-1] = (patterns.matrix == X).T
    edges = np.diff(mask.reshape(-1))
    lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    sizes, counts = np.unique(lengths, return_counts=True)
    histogram = {int(size): int(count) for size, count in zip(sizes, counts)}
    return StretchStats(histogram=histogram, n_rows=n_rows, n_columns=n_columns)
