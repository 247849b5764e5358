"""Differential tests: the fast kernels against their references in ``helpers.py``.

Every kernel must agree with its reference bit for bit: interval order and
fields, base toggles, the prefilled matrix, XStat's phase-1 choices (whose
order breaks phase 2's ties), MT fill, the reconstruction of a colour
assignment, the row-blocked BCP window bound and the ISA/XStat tours.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import bcp
from repro.core.bcp import (
    InfeasibleColoringError,
    bcp_lower_bound,
    greedy_coloring,
    solve_weighted_bcp,
    weighted_peak_bound,
)
from repro.core.intervals import ExtractionPlan, apply_assignment, extract_intervals
from repro.cubes.bits import X
from repro.cubes.cube import TestSet
from repro.filling.simple import MinimumTransitionFill
from repro.filling.xstat import XStatFill
from repro.orderings.isa import ISAOrdering
from repro.orderings.xstat_ordering import XStatOrdering
from tests.helpers import (
    cube_set_from_rows,
    make_interval,
    reference_apply_assignment,
    reference_extract_intervals,
    reference_mt_fill,
    reference_nn_tour,
    reference_window_bound,
    reference_xstat_fill,
    reference_xstat_phase1,
)

SQUEEZE_MODES = ("middle", "left", "right")

#: Pin-major edge cases: all-X rows and patterns, one pattern, one pin,
#: adjacent differing bits, held (0X..X0) and free (0X..X1) stretches.
EDGE_CASES = [
    ["X"],
    ["0"],
    ["XXXX"],
    ["01"],
    ["0101"],
    ["0XXX0", "1XXX1"],
    ["0XXX1", "1XXX0"],
    ["X0X1X", "XXXXX", "1X0X1"],
    ["0X1", "0X1", "1X0"],
    ["X01XX10X", "0XXXXXX1", "XXXXXXXX", "10XX0X1X"],
    ["0", "1", "X"],
    ["0XX1XX0", "XX1XXXX", "1X0X1X0"],
]


@st.composite
def cube_sets(draw) -> TestSet:
    """Random small cube sets, biased towards the shapes the kernels special-case."""
    n_patterns = draw(st.integers(min_value=1, max_value=12))
    n_pins = draw(st.integers(min_value=1, max_value=9))
    x_fraction = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    data = rng.integers(0, 2, size=(n_patterns, n_pins)).astype(np.int8)
    data[rng.random(data.shape) < x_fraction] = X
    if draw(st.booleans()):
        data[:, draw(st.integers(min_value=0, max_value=n_pins - 1))] = X  # all-X pin
    if draw(st.booleans()):
        data[draw(st.integers(min_value=0, max_value=n_patterns - 1))] = X  # all-X pattern
    return TestSet.from_matrix(data)


def check_extraction(patterns: TestSet) -> None:
    intervals, base, prefilled = reference_extract_intervals(patterns)
    result = extract_intervals(patterns)
    assert result.n_intervals == len(intervals)
    assert result.starts.tolist() == [iv.start for iv in intervals]
    assert result.ends.tolist() == [iv.end for iv in intervals]
    assert result.rows.tolist() == [iv.row for iv in intervals]
    assert result.left_cols.tolist() == [iv.left_col for iv in intervals]
    assert result.right_cols.tolist() == [iv.right_col for iv in intervals]
    assert result.left_values.tolist() == [iv.left_value for iv in intervals]
    assert result.intervals == intervals
    assert result.base_toggles.dtype == np.int64
    np.testing.assert_array_equal(result.base_toggles, base)
    assert result.prefilled.dtype == prefilled.dtype
    np.testing.assert_array_equal(result.prefilled, prefilled)

    starts, ends, plan_base = ExtractionPlan.from_test_set(patterns).interval_arrays()
    assert starts.tolist() == result.starts.tolist()
    assert ends.tolist() == result.ends.tolist()
    np.testing.assert_array_equal(plan_base, base)

    # Reconstruction: the solver's colours and both window edges.
    colourings = [result.starts, result.ends]
    if result.n_boundaries:
        colourings.append(solve_weighted_bcp(result, result.base_toggles).colors)
    for colors in colourings:
        expected = reference_apply_assignment(intervals, prefilled, colors)
        np.testing.assert_array_equal(apply_assignment(result, colors), expected)


def check_fills(patterns: TestSet) -> None:
    filled = MinimumTransitionFill().fill(patterns)
    np.testing.assert_array_equal(filled.matrix, reference_mt_fill(patterns.matrix))
    for squeeze in SQUEEZE_MODES:
        fill = XStatFill(squeeze=squeeze)
        pin = patterns.pin_matrix()
        rows, cols, left_values, right_values = fill._phase1(pin)
        expected_pin, expected_choices = reference_xstat_phase1(patterns.pin_matrix(), squeeze)
        np.testing.assert_array_equal(pin, expected_pin)
        choices = list(
            zip(rows.tolist(), cols.tolist(), left_values.tolist(), right_values.tolist())
        )
        assert choices == expected_choices
        np.testing.assert_array_equal(
            fill.fill(patterns).matrix, reference_xstat_fill(patterns, squeeze)
        )


@pytest.mark.parametrize("rows", EDGE_CASES, ids=["|".join(rows) for rows in EDGE_CASES])
def test_edge_cases_match_reference(rows):
    patterns = cube_set_from_rows(rows)
    check_extraction(patterns)
    check_fills(patterns)


@settings(max_examples=200, deadline=None)
@given(patterns=cube_sets())
def test_extraction_matches_reference(patterns):
    check_extraction(patterns)


@settings(max_examples=200, deadline=None)
@given(patterns=cube_sets())
def test_fills_match_reference(patterns):
    check_fills(patterns)


def test_intervals_are_built_lazily():
    result = extract_intervals(cube_set_from_rows(["0XX1", "1XX0"]))
    assert "intervals" not in vars(result)
    solve_weighted_bcp(result, result.base_toggles)
    assert "intervals" not in vars(result)
    assert [iv.row for iv in result.intervals] == [0, 1]
    assert result.intervals is result.intervals


def test_extraction_and_object_intervals_colour_identically(medium_synthetic_set):
    result = extract_intervals(medium_synthetic_set)
    capacity = np.full(result.n_boundaries, result.n_intervals, dtype=np.int64)
    np.testing.assert_array_equal(
        greedy_coloring(result, capacity, n_colors=result.n_boundaries),
        greedy_coloring(result.intervals, capacity, n_colors=result.n_boundaries),
    )
    from_arrays = solve_weighted_bcp(result, result.base_toggles)
    from_objects = solve_weighted_bcp(result.intervals, result.base_toggles)
    np.testing.assert_array_equal(from_arrays.colors, from_objects.colors)
    assert from_arrays.peak == from_objects.peak


# -- BCP window bound: row-blocked sweep vs the dense table -----------------
#: Block budgets from one cell (a block per unique start) to the default.
BLOCK_BUDGETS = [1, 5, 64, bcp._BLOCK_CELLS]


@st.composite
def bcp_instances(draw):
    """Interval arrays plus base loads with duplicate starts and ends,
    point intervals, and bases whose peak may exceed every window."""
    n_colors = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Few distinct starts and lengths make duplicate starts, ends and windows.
    starts = rng.choice(rng.integers(0, n_colors, size=draw(st.integers(1, 6))), size=k)
    lengths = rng.choice([0, 0, 1, 2, 5, n_colors], size=k)
    ends = np.minimum(starts + lengths, n_colors - 1)
    base = rng.integers(0, draw(st.sampled_from([1, 2, 4, 9])), size=n_colors)
    if draw(st.booleans()):
        base[rng.integers(0, n_colors)] += draw(st.integers(min_value=0, max_value=40))
    return starts.astype(np.int64), ends.astype(np.int64), base.astype(np.int64)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(instance=bcp_instances())
def test_window_bound_matches_dense_table(monkeypatch, budget, instance):
    monkeypatch.setattr(bcp, "_BLOCK_CELLS", budget)
    starts, ends, base = instance
    assert weighted_peak_bound(starts, ends, base) == reference_window_bound(starts, ends, base)
    intervals = [make_interval(int(s), int(e)) for s, e in zip(starts, ends)]
    assert bcp_lower_bound(intervals) == reference_window_bound(starts, ends)


def test_window_bound_rejects_negative_base():
    with pytest.raises(ValueError, match="non-negative"):
        weighted_peak_bound(np.array([0]), np.array([1]), np.array([1, -1]))


def check_bound_is_exact(starts, ends, base) -> None:
    """``_greedy`` meets the bound, and fails one below it (Hall's condition)."""
    bound = weighted_peak_bound(starts, ends, base)
    n_colors = base.size
    colors = bcp._greedy(starts, ends, bound - base, n_colors=n_colors)
    assert ((colors >= starts) & (colors <= ends)).all()
    assert int((np.bincount(colors, minlength=n_colors) + base).max()) <= bound
    if bound > int(base.max()):
        with pytest.raises(InfeasibleColoringError):
            bcp._greedy(starts, ends, bound - 1 - base, n_colors=n_colors)


@pytest.mark.parametrize("seed", range(6))
def test_window_bound_is_exact_on_extracted_sets(monkeypatch, seed):
    """Instances far beyond ``brute_force_bcp``: cube sets of 40-120 patterns."""
    monkeypatch.setattr(bcp, "_BLOCK_CELLS", 97)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(int(rng.integers(40, 121)), 30)).astype(np.int8)
    data[rng.random(data.shape) < 0.85] = X
    result = extract_intervals(TestSet.from_matrix(data))
    check_bound_is_exact(result.starts, result.ends, result.base_toggles)
    zero = np.zeros_like(result.base_toggles)
    check_bound_is_exact(result.starts, result.ends, zero)
    assert weighted_peak_bound(result.starts, result.ends, zero) == bcp_lower_bound(result)


@settings(max_examples=100, deadline=None)
@given(instance=bcp_instances())
def test_window_bound_is_exact(instance):
    check_bound_is_exact(*instance)


# -- greedy nearest-neighbour tours: distance matrix vs per-step masks ------
@st.composite
def tour_sets(draw) -> TestSet:
    """Cube sets with duplicate cubes, all-X cubes and one-pin or n <= 3 shapes."""
    data = draw(cube_sets()).matrix.copy()
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        data = np.concatenate([data, data[rng.integers(0, data.shape[0], size=4)]])
    if draw(st.booleans()):
        data[rng.integers(0, data.shape[0])] = X
    return TestSet.from_matrix(data[rng.permutation(data.shape[0])])


def check_tours(patterns: TestSet) -> None:
    n = len(patterns)
    for distance, ordering in (("isa", ISAOrdering()), ("xstat", XStatOrdering())):
        # Sets of one or two cubes keep their order.
        expected = list(range(n)) if n <= 2 else reference_nn_tour(patterns, distance)
        assert ordering.order(patterns).permutation == expected, distance


@settings(max_examples=200, deadline=None)
@given(patterns=tour_sets())
def test_tours_match_reference(patterns):
    check_tours(patterns)


@pytest.mark.parametrize("rows", [["0"], ["01X"], ["XXX"], ["0X1", "1X0"]])
def test_tours_on_tiny_sets(rows):
    check_tours(cube_set_from_rows(rows))
