"""Micro-benchmarks of the core algorithms (no circuits involved).

These are not tied to a specific paper table; they quantify the claimed
complexities — the ``O(k log k)`` greedy colouring, the ``O(k^2)``-time
lower bound and the end-to-end DP-fill — on synthetic cube sets of
increasing size, and they back the scalability statement in the README.
The greedy-tour section times the ISA/XStat orderings against
``tests/helpers.py::reference_nn_tour``, so run it from the repository root
with ``PYTHONPATH=src:.``.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.bcp import bcp_lower_bound, solve_bcp, solve_weighted_bcp, weighted_peak_bound
from repro.core.dpfill import dp_fill
from repro.core.intervals import extract_intervals
from repro.core.ordering import interleaved_ordering
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.orderings.isa import ISAOrdering
from repro.orderings.xstat_ordering import XStatOrdering
from tests.helpers import reference_nn_tour


def _cube_set(n_pins: int, n_patterns: int, seed: int = 1):
    return generate_cube_set(
        CubeSetSpec(n_pins=n_pins, n_patterns=n_patterns, x_fraction=0.8, seed=seed)
    )


def _scratch_evaluator(candidate: TestSet) -> int:
    """The pre-reuse evaluation path: full re-extraction + full solve.

    This is what every candidate ``k`` of the I-Ordering search cost before
    the :class:`ExtractionPlan` reuse landed; the benchmark keeps it around
    as the baseline the reuse is measured against.
    """
    if len(candidate) < 2:
        return 0
    extraction = extract_intervals(candidate)
    return solve_weighted_bcp(extraction.intervals, extraction.base_toggles).peak


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_extract_intervals(benchmark, n_pins, n_patterns):
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: extract_intervals(cubes))
    assert result.n_pins == n_pins


@pytest.mark.parametrize(
    "n_pins,n_patterns,x_fraction,weighted",
    [
        (100, 50, 0.8, False),
        (300, 100, 0.8, False),
        (600, 200, 0.8, False),
        # The long-sets workload's shape (full-size b14, 2048 cubes) on the
        # weighted bound, as DP-fill and every I-Ordering candidate run it.
        (275, 2048, 0.779, True),
    ],
)
def test_bench_bcp_lower_bound(benchmark, n_pins, n_patterns, x_fraction, weighted):
    extraction = extract_intervals(
        generate_cube_set(
            CubeSetSpec(n_pins=n_pins, n_patterns=n_patterns, x_fraction=x_fraction, seed=1)
        )
    )
    if weighted:
        starts, ends, base = extraction.starts, extraction.ends, extraction.base_toggles
        value = benchmark(lambda: weighted_peak_bound(starts, ends, base))
    else:
        intervals = extraction.intervals
        value = benchmark(lambda: bcp_lower_bound(intervals))
    assert value >= 0


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_solve_bcp(benchmark, n_pins, n_patterns):
    intervals = extract_intervals(_cube_set(n_pins, n_patterns)).intervals
    solution = benchmark(lambda: solve_bcp(intervals))
    assert solution.peak == solution.lower_bound


@pytest.mark.parametrize("n_pins,n_patterns", [(100, 50), (300, 100), (600, 200)])
def test_bench_dp_fill_end_to_end(benchmark, n_pins, n_patterns):
    cubes = _cube_set(n_pins, n_patterns)
    report = benchmark(lambda: dp_fill(cubes))
    assert report.filled.is_fully_specified()


def test_bench_interleaved_ordering(benchmark):
    cubes = _cube_set(200, 120)
    result = benchmark(lambda: interleaved_ordering(cubes))
    assert result.peak is not None


# -- I-Ordering evaluation: extraction reuse vs re-extraction ---------------
@pytest.mark.parametrize("n_pins,n_patterns", [(200, 120), (400, 400)])
def test_bench_ordering_search_scratch(benchmark, n_pins, n_patterns):
    """Baseline: every candidate k re-extracts and re-solves from scratch."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: interleaved_ordering(cubes, evaluator=_scratch_evaluator))
    assert result.peak is not None


@pytest.mark.parametrize("n_pins,n_patterns", [(200, 120), (400, 400)])
def test_bench_ordering_search_reused(benchmark, n_pins, n_patterns):
    """Default path: one ExtractionPlan, permuted per candidate k."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: interleaved_ordering(cubes))
    assert result.peak is not None


# -- greedy NN tours: pairwise distance matrix vs per-step boolean masks ---
_ORDERINGS = {"xstat": XStatOrdering, "isa": ISAOrdering}


@pytest.mark.parametrize("distance", sorted(_ORDERINGS))
@pytest.mark.parametrize("n_pins,n_patterns", [(100, 80), (300, 200)])
def test_benchreference_nn_tour(benchmark, n_pins, n_patterns, distance):
    """Baseline: per-step boolean-mask distance evaluation (``reference_nn_tour``)."""
    cubes = _cube_set(n_pins, n_patterns)
    permutation = benchmark(lambda: reference_nn_tour(cubes, distance))
    assert len(permutation) == n_patterns


@pytest.mark.parametrize("distance", sorted(_ORDERINGS))
@pytest.mark.parametrize("n_pins,n_patterns", [(100, 80), (300, 200)])
def test_bench_nn_tour_matrix(benchmark, n_pins, n_patterns, distance):
    """Default path: blocked GEMMs build the 16-bit distance matrix, then the tour."""
    cubes = _cube_set(n_pins, n_patterns)
    result = benchmark(lambda: _ORDERINGS[distance]().order(cubes))
    assert result.permutation == reference_nn_tour(cubes, distance)


def _traced_peak(call) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nn_tour_report() -> float:
    """Standalone section: time both tour formulations, return worst speedup.

    The last size is the long-sets shape (b14's 275 pins, 2048 cubes); the
    peak column is the matrix path's traced peak, one 16-bit ``n x n``
    matrix plus the cube planes.
    """
    sizes = [(100, 80), (300, 200), (600, 400), (275, 2048)]
    print("\ngreedy NN tours (xstat / isa): boolean masks vs pairwise matrix")
    print(
        f"{'cube set':>12} {'dist':>6} {'masks (ms)':>11} {'matrix (ms)':>12} {'speedup':>8} "
        f"{'peak (MB)':>10}"
    )
    print("-" * 65)
    worst = float("inf")
    for n_pins, n_patterns in sizes:
        cubes = _cube_set(n_pins, n_patterns)
        for distance, ordering_cls in sorted(_ORDERINGS.items()):
            t_masks = t_matrix = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                baseline_perm = reference_nn_tour(cubes, distance)
                t_masks = min(t_masks, time.perf_counter() - start)
                start = time.perf_counter()
                permutation = ordering_cls().order(cubes).permutation
                t_matrix = min(t_matrix, time.perf_counter() - start)
                assert permutation == baseline_perm, distance
            peak = _traced_peak(lambda: ordering_cls().order(cubes))
            speedup = t_masks / t_matrix
            worst = min(worst, speedup)
            print(
                f"{n_pins:>5}x{n_patterns:<6} {distance:>6} {t_masks * 1000:>11.1f} "
                f"{t_matrix * 1000:>12.1f} {speedup:>7.1f}x {peak / 1e6:>10.2f}"
            )
    return worst


def main() -> int:
    """Standalone mode: quantify the extraction-reuse win in the search.

    Prints, per cube-set size, the wall-clock of the I-Ordering search with
    the scratch evaluator vs the plan-reuse default (results asserted equal
    first), plus the per-candidate evaluation cost of both paths.
    """
    sizes = [(200, 120), (400, 400), (600, 600)]
    print(f"{'cube set':>12} {'scratch (ms)':>13} {'reused (ms)':>12} {'speedup':>8}")
    print("-" * 49)
    worst = float("inf")
    for n_pins, n_patterns in sizes:
        cubes = _cube_set(n_pins, n_patterns)
        slow = interleaved_ordering(cubes, evaluator=_scratch_evaluator)
        fast = interleaved_ordering(cubes)
        assert slow.permutation == fast.permutation and slow.peak == fast.peak
        t_slow = t_fast = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            interleaved_ordering(cubes, evaluator=_scratch_evaluator)
            t_slow = min(t_slow, time.perf_counter() - start)
            start = time.perf_counter()
            interleaved_ordering(cubes)
            t_fast = min(t_fast, time.perf_counter() - start)
        speedup = t_slow / t_fast
        worst = min(worst, speedup)
        print(
            f"{n_pins:>5}x{n_patterns:<6} {t_slow * 1000:>13.1f} {t_fast * 1000:>12.1f} "
            f"{speedup:>7.1f}x"
        )
    code = 0
    if worst < 1.0:
        print("WARNING: extraction reuse slower than re-extraction")
        code = 1
    worst_tour = _nn_tour_report()
    if worst_tour < 1.0:
        print("WARNING: pairwise-matrix NN tour slower than the boolean-mask loop")
        code = 1
    return code


if __name__ == "__main__":
    import sys

    sys.exit(main())
