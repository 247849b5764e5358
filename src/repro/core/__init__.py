"""The paper's primary contribution: DP-fill and I-Ordering.

The package is organised exactly along the paper's sections:

``intervals``
    Section V-C — preprocessing of the pin matrix and extraction of the
    toggle intervals that form the Bottleneck Coloring Problem instance.
``bcp``
    Section VI-A/B — the dynamic-programming lower bound (Algorithm 1), the
    earliest-deadline-first greedy colouring (Algorithm 2), and a
    base-load-aware exact solver for the true peak-input-toggle objective.
``dpfill``
    Section V-D — constructing the optimally filled pattern set from the
    BCP solution.
``ordering``
    Section VI-D — the interleaved test-vector ordering (Algorithm 3).
"""

from repro.core.bcp import (
    BCPSolution,
    bcp_lower_bound,
    greedy_coloring,
    solve_bcp,
    solve_weighted_bcp,
    weighted_lower_bound,
    weighted_peak_bound,
)
from repro.core.dpfill import (
    DPFillReport,
    dp_fill,
    optimal_peak_for_ordering,
    optimal_peak_for_permutation,
)
from repro.core.intervals import (
    ExtractionPlan,
    ExtractionResult,
    ToggleInterval,
    extract_intervals,
)
from repro.core.ordering import InterleaveStep, OrderingResult, interleaved_ordering

__all__ = [
    "ToggleInterval",
    "ExtractionPlan",
    "ExtractionResult",
    "extract_intervals",
    "BCPSolution",
    "bcp_lower_bound",
    "weighted_lower_bound",
    "weighted_peak_bound",
    "greedy_coloring",
    "solve_bcp",
    "solve_weighted_bcp",
    "DPFillReport",
    "dp_fill",
    "optimal_peak_for_ordering",
    "optimal_peak_for_permutation",
    "OrderingResult",
    "InterleaveStep",
    "interleaved_ordering",
]
