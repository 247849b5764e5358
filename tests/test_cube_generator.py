"""Unit tests for the synthetic cube-set generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cubes.bits import X
from repro.cubes.generator import (
    CubeSetSpec,
    generate_cube_set,
    generate_cube_set_like,
    random_fully_specified_set,
)
from repro.cubes.metrics import stretch_histogram


class TestSpecValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            CubeSetSpec(n_pins=0, n_patterns=10, x_fraction=0.5)
        with pytest.raises(ValueError):
            CubeSetSpec(n_pins=10, n_patterns=0, x_fraction=0.5)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            CubeSetSpec(n_pins=10, n_patterns=10, x_fraction=1.0)
        with pytest.raises(ValueError):
            CubeSetSpec(n_pins=10, n_patterns=10, x_fraction=0.5, cluster_fraction=2.0)
        with pytest.raises(ValueError):
            CubeSetSpec(n_pins=10, n_patterns=10, x_fraction=0.5, hot_pin_fraction=-0.1)


class TestGeneration:
    def test_shape_matches_spec(self):
        ts = generate_cube_set(CubeSetSpec(n_pins=50, n_patterns=20, x_fraction=0.6, seed=1))
        assert len(ts) == 20
        assert ts.n_pins == 50

    def test_determinism_per_seed(self):
        spec = CubeSetSpec(n_pins=40, n_patterns=15, x_fraction=0.7, seed=3)
        assert generate_cube_set(spec) == generate_cube_set(spec)

    def test_different_seeds_differ(self):
        a = generate_cube_set(CubeSetSpec(n_pins=40, n_patterns=15, x_fraction=0.7, seed=3))
        b = generate_cube_set(CubeSetSpec(n_pins=40, n_patterns=15, x_fraction=0.7, seed=4))
        assert a != b

    @pytest.mark.parametrize("target", [0.3, 0.6, 0.85])
    def test_x_density_close_to_target(self, target):
        ts = generate_cube_set(
            CubeSetSpec(n_pins=200, n_patterns=80, x_fraction=target, seed=11)
        )
        assert ts.x_fraction == pytest.approx(target, abs=0.08)

    def test_every_pattern_has_at_least_one_care_bit(self):
        ts = generate_cube_set(CubeSetSpec(n_pins=30, n_patterns=50, x_fraction=0.9, seed=5))
        assert (ts.x_counts_per_pattern() < ts.n_pins).all()

    def test_percent_wrapper(self):
        ts = generate_cube_set_like(100, 40, 75.0, seed=2)
        assert ts.x_fraction == pytest.approx(0.75, abs=0.1)

    def test_clustering_produces_long_stretches(self):
        clustered = generate_cube_set(
            CubeSetSpec(n_pins=120, n_patterns=60, x_fraction=0.8, cluster_fraction=0.9, seed=9)
        )
        stats = stretch_histogram(clustered)
        # With 80 % X density there must be stretches spanning several patterns.
        assert stats.max_length >= 3


def _matrix_digest(ts) -> str:
    matrix = np.ascontiguousarray(ts.matrix)
    assert matrix.dtype == np.int8
    return hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest()


#: blake2b digests of ``generate_cube_set(spec).matrix``.  A changed digest
#: means a changed random stream: every synthetic row of every report moves.
STREAM_DIGESTS = {
    # long-sets: full-size b14 (275 pins), 2048 cubes at Table I's 77.9 % X.
    "long_sets_b14": (
        CubeSetSpec(n_pins=275, n_patterns=2048, x_fraction=0.779, seed=0),
        "bf603383d5145600544dfcdbbe26c050",
    ),
    # The full-scale b18 cube set: 3357 pins, 256 cubes at 86.9 % X.
    "fullscale_b18": (
        CubeSetSpec(n_pins=3357, n_patterns=256, x_fraction=0.869, seed=0),
        "bd0cdb125ec7a6a41894a894912032ff",
    ),
    # Low X: most budgets clip at n_pins.
    "low_x_clipped": (
        CubeSetSpec(n_pins=24, n_patterns=40, x_fraction=0.05, seed=1),
        "4a46bec5dac6aa91346e7450873cf735",
    ),
    # No cluster and clipped budgets: the scatter draws every pin.
    "scatter_all_pins": (
        CubeSetSpec(n_pins=16, n_patterns=30, x_fraction=0.05, cluster_fraction=0.0, seed=2),
        "ca16e104a2bafc87cb71f2480205d196",
    ),
    "cluster_0": (
        CubeSetSpec(n_pins=60, n_patterns=40, x_fraction=0.7, cluster_fraction=0.0, seed=3),
        "f8c02e0ec44890edc782a7758fdb1ce0",
    ),
    "cluster_1": (
        CubeSetSpec(n_pins=60, n_patterns=40, x_fraction=0.7, cluster_fraction=1.0, seed=3),
        "b974a7b2e58e64ca49570726ffa94ef9",
    ),
}


class TestStreamDigests:
    """The generator's output is pinned bit for bit, draw for draw."""

    @pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
    def test_matrix_digest_is_pinned(self, case):
        spec, digest = STREAM_DIGESTS[case]
        ts = generate_cube_set(spec)
        assert ts.matrix.shape == (spec.n_patterns, spec.n_pins)
        assert _matrix_digest(ts) == digest

    def test_low_x_budgets_fill_whole_cubes(self):
        spec = STREAM_DIGESTS["low_x_clipped"][0]
        care = spec.n_pins - generate_cube_set(spec).x_counts_per_pattern()
        assert (care == spec.n_pins).any()

    def test_scatter_covers_every_pin(self):
        spec = STREAM_DIGESTS["scatter_all_pins"][0]
        care = spec.n_pins - generate_cube_set(spec).x_counts_per_pattern()
        assert (care == spec.n_pins).any()


class TestFullySpecifiedGenerator:
    def test_no_x_bits(self):
        ts = random_fully_specified_set(20, 10, seed=0)
        assert ts.is_fully_specified()
        assert len(ts) == 10 and ts.n_pins == 20

    def test_deterministic(self):
        assert random_fully_specified_set(8, 4, seed=1) == random_fully_specified_set(8, 4, seed=1)

    def test_values_are_binary(self):
        ts = random_fully_specified_set(16, 6, seed=2)
        assert not (ts.matrix == X).any()
        assert set(np.unique(ts.matrix)).issubset({0, 1})
