"""Unit tests for the tri-valued bit encoding helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cubes.bits import (
    ONE,
    X,
    ZERO,
    bit_from_char,
    bit_to_char,
    bits_from_string,
    bits_to_string,
    is_specified,
    merge_bits,
    random_bits,
    validate_bits,
)


class TestBitConversion:
    def test_round_trip_characters(self):
        for char, value in [("0", ZERO), ("1", ONE), ("X", X)]:
            assert bit_from_char(char) == value
            assert bit_to_char(value) == char

    def test_alternate_dont_care_spellings(self):
        assert bit_from_char("x") == X
        assert bit_from_char("-") == X
        assert bit_from_char("D") == X
        assert bit_from_char("d") == X

    def test_invalid_character_raises(self):
        with pytest.raises(ValueError):
            bit_from_char("2")
        with pytest.raises(ValueError):
            bit_from_char("")

    def test_invalid_bit_value_raises(self):
        with pytest.raises(ValueError):
            bit_to_char(7)

    def test_string_round_trip(self):
        text = "01XX10X"
        assert bits_to_string(bits_from_string(text)) == text

    def test_string_parsing_ignores_whitespace_and_underscores(self):
        assert bits_to_string(bits_from_string("01_XX 10")) == "01XX10"

    def test_parsed_dtype_is_int8(self):
        assert bits_from_string("01X").dtype == np.int8


class TestBitPredicates:
    def test_is_specified_mask(self):
        bits = bits_from_string("0X1X")
        np.testing.assert_array_equal(is_specified(bits), [True, False, True, False])

    def test_validate_accepts_valid_values(self):
        validate_bits(np.array([ZERO, ONE, X], dtype=np.int8))

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="invalid bit values"):
            validate_bits(np.array([0, 3], dtype=np.int8))

    @pytest.mark.parametrize("bad", [-1, 3, 127, -128])
    def test_validate_rejects_every_out_of_range_code(self, bad):
        with pytest.raises(ValueError, match=rf"invalid bit values in cube data: \[{bad}\]"):
            validate_bits(np.array([ZERO, bad, X, ONE], dtype=np.int8))

    def test_validate_lists_all_bad_values(self):
        with pytest.raises(ValueError, match=r"\[-128, -1, 3, 127\]"):
            validate_bits(np.array([3, 0, -1, 127, 2, -128, 3], dtype=np.int8))

    def test_validate_empty_is_fine(self):
        validate_bits(np.array([], dtype=np.int8))


class TestRandomBits:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(0)
        bits = random_bits(200, 0.5, rng)
        assert bits.shape == (200,)
        assert set(np.unique(bits)).issubset({ZERO, ONE, X})

    def test_extreme_fractions(self):
        rng = np.random.default_rng(0)
        assert not (random_bits(64, 0.0, rng) == X).any()
        assert (random_bits(64, 1.0, rng) == X).all()

    def test_invalid_fraction_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_bits(8, 1.5, rng)


class TestMergeBits:
    def test_specified_wins_over_x(self):
        merged = merge_bits(bits_from_string("0XX"), bits_from_string("X1X"))
        assert merged == [ZERO, ONE, X]

    def test_conflict_raises(self):
        with pytest.raises(ValueError, match="conflict"):
            merge_bits(bits_from_string("01"), bits_from_string("00"))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="different lengths"):
            merge_bits(bits_from_string("01"), bits_from_string("011"))
