"""Unit tests for toggle and don't-care metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubes.cube import TestCube, TestSet
from repro.cubes.metrics import (
    conflict_distance,
    hamming_distance,
    peak_toggles,
    specified_bit_count,
    stretch_histogram,
    toggle_profile,
    total_toggles,
    x_density,
)
from tests.helpers import reference_stretch_histogram


class TestHammingDistance:
    def test_basic(self):
        assert hamming_distance(TestCube.from_string("0101"), TestCube.from_string("0011")) == 2

    def test_identical_vectors(self):
        cube = TestCube.from_string("0101")
        assert hamming_distance(cube, cube) == 0

    def test_rejects_x_bits(self):
        with pytest.raises(ValueError):
            hamming_distance(TestCube.from_string("0X"), TestCube.from_string("00"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(TestCube.from_string("01"), TestCube.from_string("011"))


class TestConflictDistance:
    def test_counts_only_specified_disagreements(self):
        a = TestCube.from_string("0X1X")
        b = TestCube.from_string("1X0X")
        assert conflict_distance(a, b) == 2

    def test_x_never_conflicts(self):
        a = TestCube.from_string("XXXX")
        b = TestCube.from_string("0101")
        assert conflict_distance(a, b) == 0

    def test_lower_bounds_hamming_for_any_fill(self):
        a = TestCube.from_string("0X1")
        b = TestCube.from_string("10X")
        base = conflict_distance(a, b)
        for fill_a in ("001", "011"):
            for fill_b in ("100", "101"):
                assert hamming_distance(TestCube.from_string(fill_a), TestCube.from_string(fill_b)) >= base


class TestToggleProfiles:
    def test_profile_and_peak(self):
        ts = TestSet.from_strings(["0000", "0011", "1111", "1111"])
        np.testing.assert_array_equal(toggle_profile(ts), [2, 2, 0])
        assert peak_toggles(ts) == 2
        assert total_toggles(ts) == 4

    def test_single_pattern_has_no_boundaries(self):
        ts = TestSet.from_strings(["0101"])
        assert toggle_profile(ts).size == 0
        assert peak_toggles(ts) == 0
        assert total_toggles(ts) == 0

    def test_profile_rejects_unfilled_sets(self):
        ts = TestSet.from_strings(["0X", "00"])
        with pytest.raises(ValueError):
            toggle_profile(ts)

    def test_peak_is_max_of_profile(self):
        ts = TestSet.from_strings(["000", "111", "110", "000"])
        profile = toggle_profile(ts)
        assert peak_toggles(ts) == int(profile.max())


class TestXStatistics:
    def test_density_and_counts(self):
        ts = TestSet.from_strings(["0XXX", "01XX"])
        assert x_density(ts) == pytest.approx(5 / 8)
        assert specified_bit_count(ts) == 3

    def test_stretch_histogram_simple(self):
        # Pin rows (3 pins, 4 patterns): built from patterns below.
        ts = TestSet.from_strings(["0X0", "XXX", "X01", "0X1"]).reordered([0, 1, 2, 3])
        stats = stretch_histogram(ts)
        assert stats.n_rows == 3
        assert stats.n_columns == 4
        assert stats.total_x_bits == ts.x_count

    def test_stretch_histogram_counts_runs_per_pin(self):
        # One pin row: 0 X X 1 X 0 -> runs of length 2 and 1.
        ts = TestSet.from_pin_matrix(np.array([[0, 2, 2, 1, 2, 0]], dtype=np.int8))
        stats = stretch_histogram(ts)
        assert stats.histogram == {2: 1, 1: 1}
        assert stats.max_length == 2
        assert stats.mean_length == pytest.approx(1.5)
        assert stats.total_stretches == 2

    def test_stretch_histogram_full_x_row(self):
        ts = TestSet.from_pin_matrix(np.array([[2, 2, 2]], dtype=np.int8))
        stats = stretch_histogram(ts)
        assert stats.histogram == {3: 1}

    def test_cumulative_and_buckets(self):
        ts = TestSet.from_pin_matrix(
            np.array([[0, 2, 2, 2, 2, 1, 2, 0, 2, 2, 1]], dtype=np.int8)
        )
        stats = stretch_histogram(ts)
        assert stats.cumulative_at_least(2) == 2
        buckets = stats.bucketed(edges=(1, 2, 4))
        assert buckets["1"] == 1
        assert buckets["2-3"] == 1
        assert buckets[">=4"] == 1

    def test_no_x_means_empty_histogram(self):
        ts = TestSet.from_strings(["010", "101"])
        stats = stretch_histogram(ts)
        assert stats.histogram == {}
        assert stats.mean_length == 0.0
        assert stats.max_length == 0


@st.composite
def _pin_matrices(draw):
    """Pin matrices of any shape (0 rows or columns too) with all-X and fully specified rows mixed in."""
    n_rows = draw(st.integers(min_value=0, max_value=7))
    n_columns = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["random", "all-x", "specified"]))
        if kind == "all-x":
            rows.append([2] * n_columns)
        elif kind == "specified":
            rows.append(draw(st.lists(st.integers(0, 1), min_size=n_columns, max_size=n_columns)))
        else:
            rows.append(draw(st.lists(st.integers(0, 2), min_size=n_columns, max_size=n_columns)))
    return np.array(rows, dtype=np.int8).reshape(n_rows, n_columns)


@settings(max_examples=200, deadline=None)
@given(pin_matrix=_pin_matrices())
def test_stretch_histogram_matches_reference_loop(pin_matrix):
    ts = TestSet.from_pin_matrix(pin_matrix)
    stats = stretch_histogram(ts)
    assert stats.histogram == reference_stretch_histogram(ts)
    assert (stats.n_rows, stats.n_columns) == pin_matrix.shape
    assert stats.total_x_bits == ts.x_count
