"""Reconstruction of the ISA ordering (Table V comparator, ref. [20]).

Girard et al. order test vectors to reduce switching activity by visiting
them in a nearest-neighbour tour of the Hamming-distance graph.  Our cubes
still contain don't-cares at ordering time, so the distance used here is the
*conflict distance*: the number of pins on which both cubes are specified
and disagree — exactly the toggles that no later X-fill can avoid.

The tour is greedy: start from the cube with the most specified bits (the
hardest to place anywhere) and repeatedly append the unvisited cube with the
smallest conflict distance to the current one.  The whole ``n x n`` conflict
matrix is built once, with one GEMM over the 0/1 indicator planes of the
specified bits (see :func:`conflict_matrix`); the tour then only scans one
row per step.  Every entry is an integer far below float32's 2**24 ceiling,
so the matrix is exact in any summation order and the tour equals the
direct boolean-mask formulation.  Complexity is ``O(n^2 * m)`` in one BLAS
call plus ``O(n^2)`` for the tour.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.bits import ONE, ZERO
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, register_ordering


def indicator_planes(patterns: TestSet) -> Tuple[np.ndarray, np.ndarray]:
    """float32 ``(specified-one, specified-zero)`` planes of the cube matrix."""
    data = patterns.matrix
    return (data == ONE).astype(np.float32), (data == ZERO).astype(np.float32)


def conflict_matrix(ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Pairwise conflict counts ``ones @ zeros.T + zeros @ ones.T`` (float32, exact)."""
    conflicts = ones @ zeros.T
    conflicts += conflicts.T.copy()
    return conflicts


def greedy_tour(distance: np.ndarray, start: int) -> List[int]:
    """Nearest-neighbour tour over a pairwise distance matrix from ``start``.

    Each step appends the unvisited cube nearest the current one; ``argmin``
    breaks ties towards the lowest index.
    """
    n = distance.shape[0]
    unvisited = np.zeros(n, dtype=distance.dtype)  # 0, or inf once visited
    row = np.empty(n, dtype=distance.dtype)
    permutation = [start]
    unvisited[start] = np.inf
    current = start
    for __ in range(n - 1):
        np.add(distance[current], unvisited, out=row)
        current = int(np.argmin(row))
        permutation.append(current)
        unvisited[current] = np.inf
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
