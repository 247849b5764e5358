"""Interleaved test-vector ordering — I-Ordering (paper Algorithm 3, §VI-D).

DP-fill is optimal *for a given ordering*; the remaining lever is the
ordering itself.  Long don't-care stretches in the pin matrix give the BCP
wide intervals, which lets toggles be spread thin.  I-Ordering creates such
stretches by sorting the cubes by don't-care count and interleaving: one
densely specified cube followed by ``k`` X-rich cubes, for increasing
interleave sizes ``k``, keeping the ``k`` whose DP-fill bottleneck is best.
The search stops as soon as increasing ``k`` stops helping; the paper
observes (Fig. 2(b)) that the number of iterations grows like ``log n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.dpfill import optimal_peak_for_permutation
from repro.core.intervals import ExtractionPlan
from repro.cubes.cube import TestSet

Evaluator = Callable[[TestSet], int]


@dataclass(frozen=True)
class InterleaveStep:
    """One iteration of the I-Ordering search.

    Attributes:
        k: interleave size tried (number of X-rich cubes per dense cube).
        peak: optimal DP-fill bottleneck of the candidate ordering.
        improved: whether this step improved on the best value so far.
    """

    k: int
    peak: int
    improved: bool


@dataclass
class OrderingResult:
    """Outcome of an ordering algorithm.

    Attributes:
        ordered: the reordered pattern set.
        permutation: indices into the *input* set, such that
            ``input.reordered(permutation) == ordered``.
        peak: optimal peak-toggle value of the chosen ordering (DP-fill
            evaluation), when the algorithm evaluates it; ``None`` for
            orderings that do not evaluate (e.g. the tool ordering).
        trace: per-iteration search trace (I-Ordering only; used for
            Fig. 2(a) and 2(b)).
        iterations: number of candidate orderings evaluated.
    """

    ordered: TestSet
    permutation: List[int]
    peak: Optional[int] = None
    trace: List[InterleaveStep] = field(default_factory=list)
    iterations: int = 0

    @property
    def best_k(self) -> Optional[int]:
        """Interleave size of the best step in the trace, if any."""
        improved = [step for step in self.trace if step.improved]
        return improved[-1].k if improved else None


def interleave_permutation(sorted_indices: List[int], k: int) -> List[int]:
    """Build the interleaved order for a given interleave size ``k``.

    ``sorted_indices`` lists pattern indices from fewest to most don't-cares.
    The result alternates one dense cube (taken from the front) with ``k``
    X-rich cubes (taken from the back), exactly the schedule of Algorithm 3's
    inner loop, with the leftover handling made explicit.
    """
    if k < 1:
        raise ValueError("interleave size k must be at least 1")
    order: List[int] = []
    front, back = 0, len(sorted_indices) - 1
    while front <= back:
        order.append(sorted_indices[front])
        front += 1
        for __ in range(k):
            if back < front:
                break
            order.append(sorted_indices[back])
            back -= 1
    return order


def interleaved_ordering(
    patterns: TestSet,
    evaluator: Optional[Evaluator] = None,
    max_k: Optional[int] = None,
) -> OrderingResult:
    """Compute the I-Ordering of a cube set (Algorithm 3).

    Args:
        patterns: the cube set in its original (tool) order.
        evaluator: function mapping a candidate ordering to its optimal
            peak-toggle value.  Defaults to the DP-fill weighted-BCP
            evaluation, which is what the paper uses.
        max_k: optional hard cap on the interleave size, mainly for tests;
            the natural stop is the first non-improving ``k``.

    Returns:
        An :class:`OrderingResult` whose ``ordered`` set achieved the best
        bottleneck over all interleave sizes tried.  The search trace lists
        every ``(k, peak)`` pair for the figure-2 reproductions.

    Note:
        One engineering strengthening over the literal Algorithm 3: the input
        ordering itself is kept as a fallback candidate, so the returned
        ordering is never worse (under DP-fill) than the order the patterns
        arrived in.  The paper's algorithm only searches interleavings of the
        density-sorted list; on cube sets where that whole family happens to
        be worse than the generation order, the fallback preserves the
        "I-Ordering never hurts" property the evaluation relies on.

    Performance:
        With the default evaluator, the search builds one
        :class:`~repro.core.intervals.ExtractionPlan` and evaluates every
        candidate ``k`` through
        :func:`~repro.core.dpfill.optimal_peak_for_permutation` — the
        specified-bit structure is permuted instead of re-extracted from
        scratch, and no candidate :class:`TestSet` is ever materialised.
        A custom ``evaluator`` gets the literal (materialise-and-evaluate)
        behaviour.  Either way the returned values are identical.
    """
    n = len(patterns)
    plan: Optional[ExtractionPlan] = None
    if evaluator is None:
        plan = ExtractionPlan.from_test_set(patterns)

        def evaluate_permutation(permutation: Optional[List[int]]) -> int:
            return optimal_peak_for_permutation(plan, permutation)

    else:

        def evaluate_permutation(permutation: Optional[List[int]]) -> int:
            if permutation is None:
                return evaluator(patterns)
            return evaluator(patterns.reordered(permutation))

    if n <= 2:
        permutation = list(range(n))
        peak = evaluate_permutation(None) if n else 0
        return OrderingResult(
            ordered=patterns.copy(),
            permutation=permutation,
            peak=peak,
            trace=[],
            iterations=0,
        )

    x_counts = patterns.x_counts_per_pattern()
    sorted_indices = [int(i) for i in np.argsort(x_counts, kind="stable")]
    identity_peak = evaluate_permutation(None)

    best_peak: Optional[int] = None
    best_permutation: List[int] = list(range(n))
    trace: List[InterleaveStep] = []
    k = 0
    upper_k = max_k if max_k is not None else n - 1
    while True:
        k += 1
        if k > upper_k:
            break
        permutation = interleave_permutation(sorted_indices, k)
        peak = evaluate_permutation(permutation)
        improved = best_peak is None or peak < best_peak
        trace.append(InterleaveStep(k=k, peak=peak, improved=improved))
        if improved:
            best_peak = peak
            best_permutation = permutation
        else:
            break

    if best_peak is None or identity_peak < best_peak:
        best_peak = identity_peak
        best_permutation = list(range(n))

    ordered = patterns.reordered(best_permutation)
    return OrderingResult(
        ordered=ordered,
        permutation=best_permutation,
        peak=best_peak,
        trace=trace,
        iterations=len(trace),
    )
