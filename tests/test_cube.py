"""Unit tests for TestCube and TestSet containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestCube, TestSet


class TestTestCube:
    def test_from_string_and_back(self):
        cube = TestCube.from_string("0X11X")
        assert cube.to_string() == "0X11X"
        assert len(cube) == 5

    def test_counts_and_fractions(self):
        cube = TestCube.from_string("0X1XX1")
        assert cube.x_count == 3
        assert cube.specified_count == 3
        assert cube.x_fraction == pytest.approx(0.5)

    def test_fully_x_constructor(self):
        cube = TestCube.fully_x(4)
        assert cube.to_string() == "XXXX"
        assert not cube.is_fully_specified()

    def test_indexing_and_iteration(self):
        cube = TestCube.from_string("01X")
        assert cube[0] == ZERO and cube[1] == ONE and cube[2] == X
        assert list(cube) == [ZERO, ONE, X]

    def test_equality_and_hash(self):
        a = TestCube.from_string("0X1")
        b = TestCube.from_string("0X1")
        c = TestCube.from_string("011")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_bits_are_immutable(self):
        cube = TestCube.from_string("0X1")
        with pytest.raises(ValueError):
            cube.bits[0] = 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TestCube(np.array([0, 5], dtype=np.int8))

    def test_compatibility_and_merge(self):
        a = TestCube.from_string("0XX1")
        b = TestCube.from_string("X01X")
        assert a.is_compatible(b)
        assert a.merge(b).to_string() == "0011"

    def test_merge_conflict_raises(self):
        with pytest.raises(ValueError):
            TestCube.from_string("00").merge(TestCube.from_string("01"))

    def test_covers(self):
        cube = TestCube.from_string("0XX1")
        assert cube.covers(TestCube.from_string("0101"))
        assert not cube.covers(TestCube.from_string("1101"))

    def test_filled_with_constant(self):
        cube = TestCube.from_string("0XX1")
        assert cube.filled_with(ONE).to_string() == "0111"
        assert cube.filled_with(ZERO).to_string() == "0001"
        with pytest.raises(ValueError):
            cube.filled_with(X)

    def test_specified_positions(self):
        cube = TestCube.from_string("X0X1")
        np.testing.assert_array_equal(cube.specified_positions(), [1, 3])


class TestTestSetConstruction:
    def test_from_strings(self):
        ts = TestSet.from_strings(["0X1", "10X"])
        assert len(ts) == 2
        assert ts.n_pins == 3
        assert ts.to_strings() == ["0X1", "10X"]

    def test_from_mixed_inputs(self):
        ts = TestSet([TestCube.from_string("0X"), "1X", [ZERO, ONE]])
        assert ts.to_strings() == ["0X", "1X", "01"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            TestSet.from_strings(["0X1", "10"])

    def test_empty_set(self):
        ts = TestSet([])
        assert len(ts) == 0
        assert ts.x_fraction == 0.0

    def test_pin_matrix_round_trip(self):
        ts = TestSet.from_strings(["0X1", "10X", "XX0"])
        rebuilt = TestSet.from_pin_matrix(ts.pin_matrix())
        assert rebuilt == ts

    def test_names_preserved(self):
        ts = TestSet([TestCube.from_string("0X", name="f1"), TestCube.from_string("10", name="f2")])
        assert ts.names == ["f1", "f2"]
        assert ts[1].name == "f2"

    def test_names_length_check(self):
        with pytest.raises(ValueError):
            TestSet.from_strings(["01"]).from_matrix(np.zeros((2, 2), dtype=np.int8), names=["a"])


class TestTestSetOperations:
    def test_x_statistics(self):
        ts = TestSet.from_strings(["0XXX", "01XX"])
        assert ts.x_count == 5
        assert ts.x_fraction == pytest.approx(5 / 8)
        np.testing.assert_array_equal(ts.x_counts_per_pattern(), [3, 2])

    def test_reordered(self):
        ts = TestSet.from_strings(["00", "11", "0X"])
        out = ts.reordered([2, 0, 1])
        assert out.to_strings() == ["0X", "00", "11"]

    def test_reordered_rejects_non_permutation(self):
        ts = TestSet.from_strings(["00", "11"])
        with pytest.raises(ValueError):
            ts.reordered([0, 0])

    def test_subset(self):
        ts = TestSet.from_strings(["00", "11", "0X"])
        assert ts.subset([1, 2]).to_strings() == ["11", "0X"]

    def test_with_pattern(self):
        ts = TestSet.from_strings(["00", "11"])
        out = ts.with_pattern(0, TestCube.from_string("01"))
        assert out.to_strings() == ["01", "11"]
        assert ts.to_strings() == ["00", "11"]  # original untouched

    def test_filled_accepts_valid_fill(self):
        ts = TestSet.from_strings(["0X", "X1"])
        filled = ts.filled(np.array([[0, 1], [0, 1]], dtype=np.int8))
        assert filled.is_fully_specified()
        assert filled.to_strings() == ["01", "01"]

    def test_filled_rejects_care_bit_change(self):
        ts = TestSet.from_strings(["0X"])
        with pytest.raises(ValueError, match="care"):
            ts.filled(np.array([[1, 1]], dtype=np.int8))

    def test_filled_rejects_remaining_x(self):
        ts = TestSet.from_strings(["0X"])
        with pytest.raises(ValueError, match="X bits"):
            ts.filled(np.array([[0, X]], dtype=np.int8))

    def test_filled_checks_a_transposed_fill_view(self):
        # Fillers hand over the transpose of a pin-major matrix (F-ordered).
        ts = TestSet.from_strings(["0X1", "X10", "1XX"])
        pin = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int8)
        assert ts.filled(pin.T).to_strings() == ["001", "010", "100"]
        flipped = pin.copy()
        flipped[2, 0] = 0
        with pytest.raises(ValueError, match="care"):
            ts.filled(flipped.T)
        leftover = pin.copy()
        leftover[1, 2] = X
        with pytest.raises(ValueError, match="X bits"):
            ts.filled(leftover.T)

    def test_filled_rejects_wrong_shape(self):
        ts = TestSet.from_strings(["0X"])
        with pytest.raises(ValueError, match="shape"):
            ts.filled(np.zeros((2, 2), dtype=np.int8))

    def test_matrix_is_read_only(self):
        ts = TestSet.from_strings(["0X"])
        with pytest.raises(ValueError):
            ts.matrix[0, 0] = 1

    def test_copy_is_independent(self):
        ts = TestSet.from_strings(["0X"])
        assert ts.copy() == ts and ts.copy() is not ts
