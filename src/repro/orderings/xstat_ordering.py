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

The distance matrix is built once for the whole set, from float32 GEMMs
over the signed planes ``s = ones - zeros``, as *twice* the distance:
``m - s @ s.T``.  A pin where both cubes are specified and differ adds
``-1`` to ``s @ s.T`` (doubled distance 2), one where they agree adds
``+1`` (0) and one with an X adds ``0`` (1).  Doubling makes every entry an
integer in ``[0, 2m]`` and keeps every comparison and tie of the
half-integer distances.  Each entry of ``s @ s.T`` is an integer in
``[-m, m]``, far below float32's 2**24 integer ceiling, so the matrix is
exact in any summation order.
:func:`repro.orderings.isa.tour_matrix` computes it one row block at a time
over the upper triangle and stores it as 16-bit integers up to 32767 pins
(32-bit beyond), and the tour (:func:`repro.orderings.isa.greedy_tour`)
equals the direct boolean-mask formulation that
``tests/helpers.py::reference_nn_tour`` keeps as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.ordering import OrderingResult
from repro.cubes.cube import TestSet
from repro.orderings.base import Ordering, register_ordering
from repro.orderings.isa import greedy_tour, indicator_planes, tour_matrix


class XStatOrdering(Ordering):
    """Greedy nearest-neighbour ordering on the expected-toggle distance."""

    name = "xstat"

    def order(self, patterns: TestSet) -> OrderingResult:
        n = len(patterns)
        if n <= 2:
            return OrderingResult(ordered=patterns.copy(), permutation=list(range(n)))

        # 2 * expected(i, c) = n_pins - signed_i . signed_c
        signed, zeros = indicator_planes(patterns)
        signed -= zeros
        del zeros
        n_pins = signed.shape[1]

        def block(lo: int, hi: int) -> np.ndarray:
            rows = signed[lo:hi] @ signed[lo:].T
            np.subtract(n_pins, rows, out=rows)
            return rows

        distance = tour_matrix(n, 2 * n_pins, block)
        permutation = greedy_tour(distance, int(np.argmin(patterns.x_counts_per_pattern())))
        return OrderingResult(ordered=patterns.reordered(permutation), permutation=permutation)


register_ordering("xstat", XStatOrdering, aliases=["xstat-ordering", "x-stat-ordering"])
