"""Unit and property tests for the Bottleneck Coloring Problem solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bcp
from repro.core.bcp import (
    InfeasibleColoringError,
    bcp_lower_bound,
    greedy_coloring,
    solve_bcp,
    solve_weighted_bcp,
    weighted_lower_bound,
)
from tests.helpers import brute_force_bcp, make_interval, reference_greedy_coloring


class TestLowerBound:
    def test_empty_instance(self):
        assert bcp_lower_bound([]) == 0

    def test_single_interval(self):
        assert bcp_lower_bound([make_interval(0, 3)]) == 1

    def test_disjoint_intervals(self):
        intervals = [make_interval(0, 1), make_interval(2, 3), make_interval(4, 5)]
        assert bcp_lower_bound(intervals) == 1

    def test_stacked_point_intervals(self):
        intervals = [make_interval(2, 2) for _ in range(4)]
        assert bcp_lower_bound(intervals) == 4

    def test_window_argument(self):
        # Five intervals confined to two colours -> at least ceil(5/2) = 3.
        intervals = [make_interval(0, 1) for _ in range(5)]
        assert bcp_lower_bound(intervals) == 3

    def test_paper_fig1_style_instance(self):
        # Three long overlapping stretches plus one short one: LB is 1 while a
        # greedy left-squeeze would stack toggles at the same boundary.
        intervals = [
            make_interval(0, 6),
            make_interval(0, 6),
            make_interval(3, 6),
            make_interval(0, 5),
        ]
        assert bcp_lower_bound(intervals) == 1


class TestGreedyColoring:
    def test_colours_within_windows(self):
        intervals = [make_interval(0, 2), make_interval(1, 3), make_interval(2, 2)]
        colors = greedy_coloring(intervals, capacity=1)
        for interval, color in zip(intervals, colors):
            assert interval.start <= color <= interval.end

    def test_capacity_respected(self):
        intervals = [make_interval(0, 3) for _ in range(4)]
        colors = greedy_coloring(intervals, capacity=1)
        assert len(set(colors.tolist())) == 4

    def test_infeasible_capacity_raises(self):
        intervals = [make_interval(1, 1), make_interval(1, 1)]
        with pytest.raises(InfeasibleColoringError):
            greedy_coloring(intervals, capacity=1)

    def test_per_colour_capacity_array(self):
        intervals = [make_interval(0, 1), make_interval(0, 1)]
        colors = greedy_coloring(intervals, capacity=np.array([1, 1]))
        assert sorted(colors.tolist()) == [0, 1]

    def test_empty_instance(self):
        assert greedy_coloring([], capacity=1).size == 0

    def test_capacity_array_too_short_rejected(self):
        intervals = [make_interval(0, 3)]
        with pytest.raises(ValueError):
            greedy_coloring(intervals, capacity=np.array([1, 1]))

    def test_earliest_deadline_first_prefers_tight_intervals(self):
        tight = make_interval(0, 0)
        loose = make_interval(0, 5)
        colors = greedy_coloring([loose, tight], capacity=1)
        assert colors[1] == 0  # the tight interval must get colour 0
        assert colors[0] != 0


class TestSolveBCP:
    def test_meets_lower_bound(self):
        intervals = [
            make_interval(0, 2),
            make_interval(0, 2),
            make_interval(1, 4),
            make_interval(3, 4),
            make_interval(2, 2),
        ]
        solution = solve_bcp(intervals)
        assert solution.peak == solution.lower_bound == bcp_lower_bound(intervals)
        assert solution.is_optimal
        assert int(solution.histogram.sum()) == len(intervals)

    def test_matches_brute_force_on_pinned_cases(self):
        cases = [
            [make_interval(0, 0), make_interval(0, 1), make_interval(1, 1)],
            [make_interval(0, 3), make_interval(1, 2), make_interval(2, 3), make_interval(0, 1)],
            [make_interval(2, 4) for _ in range(5)],
        ]
        for intervals in cases:
            assert solve_bcp(intervals).peak == brute_force_bcp(intervals)

    def test_empty(self):
        solution = solve_bcp([])
        assert solution.peak == 0 and solution.colors.size == 0


class TestWeightedBCP:
    def test_base_only(self):
        solution = solve_weighted_bcp([], np.array([0, 3, 1]))
        assert solution.peak == 3

    def test_intervals_avoid_loaded_boundaries(self):
        base = np.array([0, 5, 0])
        intervals = [make_interval(0, 2) for _ in range(4)]
        solution = solve_weighted_bcp(intervals, base)
        assert solution.peak == 5  # the toggles hide under the existing load
        assert solution.peak == brute_force_bcp(intervals, base.tolist())

    def test_weighted_beats_unweighted_when_base_skewed(self):
        base = np.array([3, 0])
        intervals = [make_interval(0, 1) for _ in range(2)]
        weighted = solve_weighted_bcp(intervals, base)
        assert weighted.peak == brute_force_bcp(intervals, base.tolist()) == 3

    def test_lower_bound_includes_base_windows(self):
        base = np.array([2, 2, 2])
        intervals = [make_interval(0, 2) for _ in range(3)]
        assert weighted_lower_bound(intervals, base) == brute_force_bcp(intervals, base.tolist())

    def test_base_shorter_than_interval_range_rejected(self):
        with pytest.raises(ValueError):
            weighted_lower_bound([make_interval(0, 5)], np.array([0, 0]))


# -- property-based tests -----------------------------------------------------

interval_strategy = st.builds(
    lambda start, length: make_interval(start, start + length),
    start=st.integers(min_value=0, max_value=5),
    length=st.integers(min_value=0, max_value=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(interval_strategy, min_size=0, max_size=7))
def test_solve_bcp_matches_brute_force(intervals):
    """The paper's Algorithm 1 + 2 pipeline is optimal on every small instance."""
    assert solve_bcp(intervals).peak == brute_force_bcp(intervals)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(interval_strategy, min_size=0, max_size=6),
    st.lists(st.integers(min_value=0, max_value=4), min_size=10, max_size=10),
)
def test_weighted_bcp_matches_brute_force(intervals, base):
    """The base-load-aware solver is optimal on every small instance."""
    base_arr = np.array(base, dtype=np.int64)
    solution = solve_weighted_bcp(intervals, base_arr)
    assert solution.peak == brute_force_bcp(intervals, base)
    # Every colour must lie inside its interval's window.
    for interval, color in zip(intervals, solution.colors):
        assert interval.start <= color <= interval.end


@settings(max_examples=100, deadline=None)
@given(st.lists(interval_strategy, min_size=1, max_size=8))
def test_lower_bound_never_exceeds_feasible_peak(intervals):
    """Algorithm 1 is a true lower bound: the greedy solution never beats it."""
    lower = bcp_lower_bound(intervals)
    solution = solve_bcp(intervals)
    assert lower <= solution.peak
    assert solution.peak == lower  # and Algorithm 2 achieves it exactly


@settings(max_examples=400, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=10,
    ),
    capacity=st.one_of(
        st.integers(min_value=-1, max_value=3),
        st.lists(st.integers(min_value=-1, max_value=3), min_size=13, max_size=13),
    ),
    extra_colors=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
# Duplicate one-colour windows with budget for only some of them.
@example(intervals=[(2, 0), (2, 0), (2, 0)], capacity=2, extra_colors=None)
# A zero and a negative budget force later colours; spare colours past the ends.
@example(intervals=[(0, 2), (0, 2), (1, 0)], capacity=[0, 1, -1] + [1] * 10, extra_colors=3)
# Equal deadlines: the lower index takes the earlier colour.
@example(intervals=[(1, 1), (0, 2), (0, 2)], capacity=1, extra_colors=None)
def test_greedy_matches_reference_heap_sweep(intervals, capacity, extra_colors):
    """The next-free-colour form gives the heap sweep's colours, or raises with it."""
    starts = np.array([start for start, _ in intervals], dtype=np.int64)
    ends = starts + np.array([length for _, length in intervals], dtype=np.int64)
    n_colors = None if extra_colors is None else int(ends.max()) + 1 + extra_colors
    if not isinstance(capacity, int):
        capacity = np.array(capacity, dtype=np.int64)
    try:
        expected = reference_greedy_coloring(starts, ends, capacity, n_colors)
    except InfeasibleColoringError:
        with pytest.raises(InfeasibleColoringError):
            bcp._greedy(starts, ends, capacity, n_colors)
    else:
        assert bcp._greedy(starts, ends, capacity, n_colors).tolist() == expected.tolist()
