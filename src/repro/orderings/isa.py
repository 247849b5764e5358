"""Reconstruction of the ISA ordering (Table V comparator, ref. [20]).

Girard et al. order test vectors to reduce switching activity by visiting
them in a nearest-neighbour tour of the Hamming-distance graph.  Our cubes
still contain don't-cares at ordering time, so the distance used here is the
*conflict distance*: the number of pins on which both cubes are specified
and disagree — exactly the toggles that no later X-fill can avoid.

The tour is greedy: start from the cube with the most specified bits (the
hardest to place anywhere) and repeatedly append the unvisited cube with the
smallest conflict distance to the current one.  The whole ``n x n`` conflict
matrix is built once, from float32 GEMMs over the 0/1 indicator planes of
the specified bits (see :func:`conflict_matrix`), and stored as exact
16-bit integers by :func:`tour_matrix`, which computes only the upper
triangle, one block of :data:`_TOUR_BLOCK` rows at a time, and mirrors it.
The tour then only scans one integer row per step.  Every entry is an
integer no larger than the pin count, far below float32's 2**24 ceiling,
so the matrix is exact in any summation order and the tour equals the
direct boolean-mask formulation.  Complexity is ``O(n^2 * m)`` in BLAS
calls, about ``n^2 * m / 2`` multiply-adds per GEMM term, plus ``O(n^2)``
for the tour.  The matrix takes ``2 * n^2`` bytes: uint16 holds every entry
while the largest possible one (the pin count here, twice it for X-Stat)
stays below 65535, and uint32 takes over beyond.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.bits import ONE, ZERO
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, register_ordering

#: Cubes per row block of :func:`tour_matrix`.
_TOUR_BLOCK = 128


def indicator_planes(patterns: TestSet) -> Tuple[np.ndarray, np.ndarray]:
    """float32 ``(specified-one, specified-zero)`` planes of the cube matrix."""
    data = patterns.matrix
    return (data == ONE).astype(np.float32), (data == ZERO).astype(np.float32)


def tour_matrix(n: int, bound: int, block: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Symmetric ``n x n`` integer matrix built from its upper triangle.

    ``block(lo, hi)`` returns rows ``lo:hi`` of the matrix from column
    ``lo`` on, as float32 holding integers in ``[0, bound]``; it is called
    once per block of :data:`_TOUR_BLOCK` rows and its transpose fills the
    lower triangle.  The matrix is uint16 while ``bound`` stays below
    uint16's maximum and uint32 beyond, so the dtype's maximum is larger
    than every entry and :func:`greedy_tour` can use it to mark visited
    cubes.
    """
    dtype = np.uint16 if bound < np.iinfo(np.uint16).max else np.uint32
    out = np.empty((n, n), dtype=dtype)
    for lo in range(0, n, _TOUR_BLOCK):
        hi = min(lo + _TOUR_BLOCK, n)
        rows = block(lo, hi)
        out[lo:hi, lo:] = rows
        out[lo:, lo:hi] = rows.T
    return out


def conflict_matrix(ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Pairwise conflict counts ``ones @ zeros.T + zeros @ ones.T``, exact integers."""

    def block(lo: int, hi: int) -> np.ndarray:
        rows = ones[lo:hi] @ zeros[lo:].T
        rows += zeros[lo:hi] @ ones[lo:].T
        return rows

    return tour_matrix(ones.shape[0], ones.shape[1], block)


def greedy_tour(distance: np.ndarray, start: int) -> List[int]:
    """Nearest-neighbour tour over a :func:`tour_matrix` from ``start``.

    Each step appends the unvisited cube nearest the current one; ``argmin``
    breaks ties towards the lowest index.  A visited cube's distance is
    raised to the dtype's maximum, which no entry reaches (an added penalty
    would wrap around).
    """
    n = distance.shape[0]
    visited = np.zeros(n, dtype=distance.dtype)  # 0, or the maximum once visited
    row = np.empty(n, dtype=distance.dtype)
    top = np.iinfo(distance.dtype).max
    permutation = [start]
    visited[start] = top
    current = start
    for __ in range(n - 1):
        np.maximum(distance[current], visited, out=row)
        current = int(np.argmin(row))
        permutation.append(current)
        visited[current] = top
    return permutation


class ISAOrdering(Ordering):
    """Greedy nearest-neighbour ordering on the unavoidable-conflict distance."""

    name = "isa"

    def order(self, patterns: TestSet) -> OrderingResult:
        n = len(patterns)
        if n <= 2:
            return OrderingResult(ordered=patterns.copy(), permutation=list(range(n)))
        distance = conflict_matrix(*indicator_planes(patterns))
        permutation = greedy_tour(distance, int(np.argmin(patterns.x_counts_per_pattern())))
        return OrderingResult(ordered=patterns.reordered(permutation), permutation=permutation)


register_ordering("isa", ISAOrdering, aliases=["isa-ordering", "girard"])
