"""Unit tests for the I-Ordering search (Algorithm 3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.dpfill import dp_fill, optimal_peak_for_ordering
from repro.core.ordering import interleave_permutation, interleaved_ordering
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.cubes.metrics import stretch_histogram


class TestInterleavePermutation:
    def test_k1_alternates_front_and_back(self):
        assert interleave_permutation([0, 1, 2, 3, 4, 5], 1) == [0, 5, 1, 4, 2, 3]

    def test_k2_takes_two_from_back(self):
        assert interleave_permutation([0, 1, 2, 3, 4, 5, 6], 2) == [0, 6, 5, 1, 4, 3, 2]

    def test_is_always_a_permutation(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                perm = interleave_permutation(list(range(n)), k)
                assert sorted(perm) == list(range(n)), (n, k)

    def test_large_k_degenerates_to_front_back_sweep(self):
        perm = interleave_permutation([0, 1, 2, 3], 10)
        assert sorted(perm) == [0, 1, 2, 3]
        assert perm[0] == 0

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            interleave_permutation([0, 1, 2], 0)


class TestInterleavedOrdering:
    def test_never_worse_than_tool_order(self, medium_synthetic_set):
        tool_peak = dp_fill(medium_synthetic_set).peak_toggles
        result = interleaved_ordering(medium_synthetic_set)
        assert result.peak is not None and result.peak <= tool_peak

    def test_permutation_reproduces_ordered_set(self, medium_synthetic_set):
        result = interleaved_ordering(medium_synthetic_set)
        assert medium_synthetic_set.reordered(result.permutation) == result.ordered

    def test_peak_matches_reevaluation(self, medium_synthetic_set):
        result = interleaved_ordering(medium_synthetic_set)
        assert result.peak == optimal_peak_for_ordering(result.ordered)

    def test_trace_is_monotone_until_stop(self, medium_synthetic_set):
        result = interleaved_ordering(medium_synthetic_set)
        peaks = [step.peak for step in result.trace]
        # Every step but possibly the last strictly improves; the last one is
        # the non-improving step that triggers the stop (or a cap).
        for before, after in zip(peaks[:-2], peaks[1:-1]):
            assert after < before
        assert result.iterations == len(result.trace)

    def test_best_k_matches_trace(self, medium_synthetic_set):
        result = interleaved_ordering(medium_synthetic_set)
        improved = [step for step in result.trace if step.improved]
        assert result.best_k == improved[-1].k

    def test_iteration_count_is_small(self):
        """The paper observes O(log n) iterations; allow a generous constant."""
        ts = generate_cube_set(CubeSetSpec(n_pins=64, n_patterns=128, x_fraction=0.8, seed=3))
        result = interleaved_ordering(ts)
        assert result.iterations <= 6 * max(math.log2(len(ts)), 1)

    def test_max_k_cap_respected(self, medium_synthetic_set):
        result = interleaved_ordering(medium_synthetic_set, max_k=2)
        assert all(step.k <= 2 for step in result.trace)

    def test_small_sets_passthrough(self):
        tiny = TestSet.from_strings(["0X", "1X"])
        result = interleaved_ordering(tiny)
        assert result.permutation == [0, 1]
        empty = interleaved_ordering(TestSet([]))
        assert empty.permutation == []

    def test_custom_evaluator_is_used(self, medium_synthetic_set):
        calls = []

        def evaluator(candidate):
            calls.append(len(candidate))
            return optimal_peak_for_ordering(candidate)

        interleaved_ordering(medium_synthetic_set, evaluator=evaluator)
        assert calls and all(count == len(medium_synthetic_set) for count in calls)

    def test_reordering_preserves_x_mass(self):
        """Orderings move X bits around but never create or destroy them."""
        ts = generate_cube_set(CubeSetSpec(n_pins=80, n_patterns=60, x_fraction=0.85, seed=21))
        result = interleaved_ordering(ts)
        assert stretch_histogram(result.ordered).total_x_bits == stretch_histogram(ts).total_x_bits
        assert result.ordered.x_count == ts.x_count

    def test_bimodal_set_benefits_from_interleaving(self):
        """On a set with a few dense cubes and many X-rich cubes (the ATPG
        regime the paper targets) I-Ordering beats both the tool order and a
        plain density sort."""
        dense = generate_cube_set(CubeSetSpec(n_pins=60, n_patterns=6, x_fraction=0.1, seed=1))
        sparse = generate_cube_set(CubeSetSpec(n_pins=60, n_patterns=42, x_fraction=0.93, seed=2))
        data = np.vstack([dense.matrix, sparse.matrix])
        rng = np.random.default_rng(0)
        ts = TestSet.from_matrix(data[rng.permutation(data.shape[0])])

        tool_peak = dp_fill(ts).peak_toggles
        density_order = np.argsort(ts.x_counts_per_pattern(), kind="stable")
        density_peak = dp_fill(ts.reordered([int(i) for i in density_order])).peak_toggles
        result = interleaved_ordering(ts)
        assert result.peak <= tool_peak
        assert result.peak <= density_peak


class TestExtractionReuse:
    """The search's fast evaluation path must equal the literal one exactly."""

    def _sets(self):
        for seed in range(4):
            yield generate_cube_set(
                CubeSetSpec(n_pins=40, n_patterns=30, x_fraction=0.75, seed=seed)
            )

    def test_plan_interval_arrays_match_extract_intervals(self):
        from repro.core.intervals import ExtractionPlan, extract_intervals

        rng = np.random.default_rng(3)
        for ts in self._sets():
            plan = ExtractionPlan.from_test_set(ts)
            permutations = [list(range(len(ts)))] + [
                [int(i) for i in rng.permutation(len(ts))] for _ in range(3)
            ]
            for perm in permutations:
                reference = extract_intervals(ts.reordered(perm))
                starts, ends, base = plan.interval_arrays(perm)
                assert starts.tolist() == [iv.start for iv in reference.intervals]
                assert ends.tolist() == [iv.end for iv in reference.intervals]
                assert np.array_equal(base, reference.base_toggles)

    def test_fast_evaluator_equals_weighted_solver_peak(self):
        from repro.core.bcp import solve_weighted_bcp
        from repro.core.dpfill import optimal_peak_for_permutation
        from repro.core.intervals import ExtractionPlan, extract_intervals

        rng = np.random.default_rng(4)
        for ts in self._sets():
            plan = ExtractionPlan.from_test_set(ts)
            for _ in range(3):
                perm = [int(i) for i in rng.permutation(len(ts))]
                reference = extract_intervals(ts.reordered(perm))
                solved = solve_weighted_bcp(reference.intervals, reference.base_toggles)
                assert optimal_peak_for_permutation(plan, perm) == solved.peak

    def test_search_identical_with_and_without_reuse(self):
        for ts in self._sets():
            fast = interleaved_ordering(ts)
            literal = interleaved_ordering(ts, evaluator=optimal_peak_for_ordering)
            assert fast.permutation == literal.permutation
            assert fast.peak == literal.peak
            assert [(s.k, s.peak, s.improved) for s in fast.trace] == [
                (s.k, s.peak, s.improved) for s in literal.trace
            ]

    def test_search_peak_is_dp_fill_of_the_winner(self):
        for ts in self._sets():
            result = interleaved_ordering(ts)
            report = dp_fill(result.ordered)
            assert report.peak_toggles == result.peak
            assert report.is_certified_optimal
