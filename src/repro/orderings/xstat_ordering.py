"""Reconstruction of the X-Stat ordering (Tables III and V, ref. [22]).

X-Stat treats don't-cares *statistically*: before filling, an X will become
0 or 1 with probability one half, so the expected number of toggles between
two cubes is

``sum over pins of P(values differ)``

where the per-pin probability is 0 or 1 when both bits are specified and
one half when at least one of them is an X.  The ordering is a greedy
nearest-neighbour tour under this expected-toggle distance, started from the
most specified cube.  Compared with the ISA reconstruction (which only counts
hard conflicts), the statistical distance also penalises placing two X-poor
cubes next to each other, which is the behaviour the X-Stat paper describes.

The distance matrix is built once for the whole set: the ISA conflict
matrix (:func:`repro.orderings.isa.conflict_matrix`) plus one more GEMM,
``0.5 * (m - spec @ spec.T)`` for the pins where at least one cube holds an
X.  Every entry is a multiple of 0.5 far below float32's 2**24 integer
ceiling, so the matrix is exact in any summation order and the tour
(:func:`repro.orderings.isa.greedy_tour`) equals the direct boolean-mask
formulation that ``tests/helpers.py::reference_nn_tour`` keeps as the
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, register_ordering
from repro.orderings.isa import conflict_matrix, greedy_tour, indicator_planes


class XStatOrdering(Ordering):
    """Greedy nearest-neighbour ordering on the expected-toggle distance."""

    name = "xstat"

    def order(self, patterns: TestSet) -> OrderingResult:
        n = len(patterns)
        if n <= 2:
            return OrderingResult(ordered=patterns.copy(), permutation=list(range(n)))

        # expected(i, c) = hard + 0.5 * soft
        #   hard = ones_i . zeros_c + zeros_i . ones_c   (specified and differ)
        #   soft = n_pins - spec_i . spec_c              (at least one X)
        ones, zeros = indicator_planes(patterns)
        spec = ones + zeros
        distance = conflict_matrix(ones, zeros)
        soft = spec @ spec.T
        soft -= spec.shape[1]
        soft *= -0.5  # now 0.5 * soft
        distance += soft
        permutation = greedy_tour(distance, int(np.argmin(patterns.x_counts_per_pattern())))
        return OrderingResult(ordered=patterns.reordered(permutation), permutation=permutation)


register_ordering("xstat", XStatOrdering, aliases=["xstat-ordering", "x-stat-ordering"])
