"""Differential tests: the vectorised stretch kernels against the per-row loops.

Every kernel must agree with its reference in ``helpers.py`` bit for bit:
interval order and fields, base toggles, the prefilled matrix, XStat's
phase-1 choices (whose order breaks phase 2's ties), MT fill, and the
reconstruction of a colour assignment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcp import greedy_coloring, solve_weighted_bcp
from repro.core.intervals import ExtractionPlan, apply_assignment, extract_intervals
from repro.cubes.bits import X
from repro.cubes.cube import TestSet
from repro.filling.simple import MinimumTransitionFill
from repro.filling.xstat import XStatFill
from tests.helpers import (
    cube_set_from_rows,
    reference_apply_assignment,
    reference_extract_intervals,
    reference_mt_fill,
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
