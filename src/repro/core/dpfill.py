"""DP-fill: optimal X-filling of an ordered cube set (paper §V-D, §VI).

:func:`dp_fill` is the headline algorithm of the reproduction.  Given an
ordered :class:`~repro.cubes.cube.TestSet` it

1. preprocesses the pin matrix and extracts the toggle intervals
   (:mod:`repro.core.intervals`),
2. solves the resulting Bottleneck Coloring Problem optimally
   (:mod:`repro.core.bcp`), and
3. reconstructs a fully specified pattern set whose peak adjacent Hamming
   distance equals the proved optimum.

Two solver modes are available:

* ``account_base_toggles=True`` (default) — the base-load-aware exact solver.
  The returned peak is optimal for the *true* objective
  ``max_j hd(T_j, T_{j+1})``, including toggles already fixed by adjacent
  specified bits.
* ``account_base_toggles=False`` — the paper's literal formulation, which
  colours intervals ignoring the fixed toggles.  The reconstruction is still
  valid; the achieved peak can exceed the interval-only bottleneck when fixed
  toggles dominate some boundary.  This mode exists for a faithful
  reproduction and for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bcp import BCPSolution, solve_bcp, solve_weighted_bcp, weighted_peak_bound
from repro.core.intervals import (
    ExtractionPlan,
    ExtractionResult,
    apply_assignment,
    extract_intervals,
)
from repro.cubes.cube import TestSet
from repro.cubes.metrics import peak_toggles, toggle_profile


@dataclass
class DPFillReport:
    """Result of a DP-fill run.

    Attributes:
        filled: the fully specified pattern set (same ordering as the input).
        peak_toggles: achieved peak adjacent Hamming distance.
        lower_bound: proved lower bound for the mode that was run; equal to
            ``peak_toggles`` in the default (base-load-aware) mode.
        base_peak: largest per-boundary count of unavoidable toggles — no
            X-filling under this ordering can beat this value.
        interval_count: number of toggle intervals extracted.
        boundary_profile: per-boundary toggle counts of the filled set.
        solution: the underlying BCP solution (colour assignment).
        account_base_toggles: which solver mode produced the result.
    """

    filled: TestSet
    peak_toggles: int
    lower_bound: int
    base_peak: int
    interval_count: int
    boundary_profile: np.ndarray
    solution: BCPSolution
    account_base_toggles: bool

    @property
    def is_certified_optimal(self) -> bool:
        """``True`` when the achieved peak is proved optimal for the ordering."""
        return self.account_base_toggles and self.peak_toggles == self.lower_bound


def dp_fill(
    patterns: TestSet,
    account_base_toggles: bool = True,
    extraction: Optional[ExtractionResult] = None,
) -> DPFillReport:
    """Optimally fill the X bits of an ordered cube set.

    Args:
        patterns: ordered, possibly partially specified pattern set.
        account_base_toggles: use the base-load-aware exact solver (default)
            or the paper's literal interval-only formulation.
        extraction: optionally reuse a precomputed extraction for exactly
            this ordering of ``patterns``, skipping the extraction pass.
            The I-Ordering search produces one as a by-product
            (:attr:`repro.core.ordering.OrderingResult.extraction`), so the
            order-then-fill flow extracts once instead of twice.

    Returns:
        A :class:`DPFillReport`; ``report.filled`` preserves every specified
        bit of the input and contains no X.
    """
    if len(patterns) == 0:
        empty = TestSet.from_matrix(patterns.matrix.copy())
        return DPFillReport(
            filled=empty,
            peak_toggles=0,
            lower_bound=0,
            base_peak=0,
            interval_count=0,
            boundary_profile=np.zeros(0, dtype=np.int64),
            solution=BCPSolution(
                colors=np.zeros(0, dtype=np.int64),
                histogram=np.zeros(0, dtype=np.int64),
                peak=0,
                lower_bound=0,
            ),
            account_base_toggles=account_base_toggles,
        )

    if extraction is None:
        extraction = extract_intervals(patterns)

    if account_base_toggles:
        solution = solve_weighted_bcp(extraction, extraction.base_toggles)
    else:
        solution = solve_bcp(extraction, n_colors=extraction.n_boundaries)

    pin_filled = apply_assignment(extraction, solution.colors)
    filled = patterns.filled(pin_filled.T)

    profile = toggle_profile(filled)
    achieved = int(profile.max()) if profile.size else 0
    if account_base_toggles and achieved != solution.peak:
        raise AssertionError(
            "internal inconsistency: reconstructed peak "
            f"{achieved} differs from solver peak {solution.peak}"
        )

    return DPFillReport(
        filled=filled,
        peak_toggles=achieved,
        lower_bound=solution.lower_bound,
        base_peak=extraction.base_peak,
        interval_count=extraction.n_intervals,
        boundary_profile=profile,
        solution=solution,
        account_base_toggles=account_base_toggles,
    )


def optimal_peak_for_ordering(patterns: TestSet) -> int:
    """Return the optimal peak-toggle value of ``patterns`` without materialising the fill.

    This is the evaluation primitive of the I-Ordering search (Algorithm 3
    line 13): it extracts intervals and evaluates the exact weighted-BCP
    bound, skipping the colouring, reconstruction and verification passes,
    which dominate runtime for large sets.  (The bound *is* the optimum —
    see :func:`repro.core.bcp.weighted_peak_bound`.)
    """
    if len(patterns) < 2:
        return 0
    return optimal_peak_for_permutation(ExtractionPlan.from_test_set(patterns))


def optimal_peak_for_permutation(
    plan: ExtractionPlan, permutation: Optional[list] = None
) -> int:
    """Optimal peak-toggle value of one permutation of a pre-planned cube set.

    The I-Ordering search builds one :class:`~repro.core.intervals.ExtractionPlan`
    for the cube set and calls this per candidate interleave size — the
    per-candidate cost is a few vectorised passes over the specified bits
    instead of a full re-extraction (see the ``bench_core.py``
    micro-benchmark).
    """
    starts, ends, base = plan.interval_arrays(permutation)
    return weighted_peak_bound(starts, ends, base)
