"""Bottleneck Coloring Problem solvers (paper §V-B and §VI).

The BCP instance consists of intervals over *boundaries* (colours): interval
``i`` must be assigned one colour ``c`` with ``start_i <= c <= end_i`` and we
minimise the maximum number of intervals sharing a colour.

Three solvers are provided:

* :func:`bcp_lower_bound` — the paper's Algorithm 1.  For every window
  ``[i, j]`` of colours, every interval contained in the window must be
  coloured inside it, so the bottleneck is at least
  ``ceil(T(i, j) / (j - i + 1))`` where ``T(i, j)`` counts the contained
  intervals.
* :func:`greedy_coloring` — the paper's Algorithm 2, which colours
  earliest deadline first with up to ``capacity`` intervals per colour.  It
  takes the intervals in deadline (end) order and gives each the earliest
  colour in its window that still has budget, found through a "next free
  colour" list (the disjoint-set scheduling of Gabow & Tarjan, JCSS 1985).
  With ``capacity = lower bound`` this meets the bound, which proves
  optimality.
* :func:`solve_weighted_bcp` — a base-load-aware generalisation.  Real cube
  sets also contain *unavoidable* toggles (adjacent specified bits that
  differ); the true peak equals ``max_c (base_c + h_c)``.  Because every
  interval's admissible colour set is a contiguous window, Hall's condition
  reduces to contiguous windows and the optimum is
  ``max(max_c base_c, max_{i<=j} ceil((T(i,j) + sum(base_i..j)) / (j-i+1)))``;
  the same earliest-deadline-first colouring with per-colour capacities
  ``B - base_c`` then constructs a witness assignment.

The paper's DP-fill uses the unweighted solver; :func:`repro.core.dpfill.dp_fill`
defaults to the weighted solver so that its output is optimal for the true
peak-input-toggle objective, and can be switched back for a literal
reproduction.

Both bounds come from one kernel, :func:`_window_bound`.  It sweeps the
paper's ``O(k^2)`` table of windows in blocks of unique starts, with the
base peak as the first incumbent.  Per block, one row of per-end upper
bounds shows which end columns could still beat the incumbent, and only
those are evaluated exactly, so most of the table is never visited.  Its
memory is ``O(block x k)`` (each exact sub-block capped by ``_BLOCK_CELLS``)
rather than the whole ``k x k`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.intervals import ExtractionResult, ToggleInterval

IntervalLike = ToggleInterval

#: A BCP instance: toggle intervals as objects, or an extraction whose
#: interval arrays are used directly (no objects are built).
Intervals = Union[Sequence[IntervalLike], ExtractionResult]


class InfeasibleColoringError(RuntimeError):
    """Raised when the greedy colouring cannot place every interval within capacity."""


@dataclass
class BCPSolution:
    """A colouring of a BCP instance.

    Attributes:
        colors: assigned colour (boundary index) per interval, aligned with
            the input interval order.
        histogram: per-colour interval counts, length ``n_colors``.
        peak: the bottleneck value actually achieved; for the weighted solver
            this includes the base loads.
        lower_bound: the proved lower bound the solution meets.
    """

    colors: np.ndarray
    histogram: np.ndarray
    peak: int
    lower_bound: int

    @property
    def is_optimal(self) -> bool:
        """``True`` when the achieved peak equals the proved lower bound."""
        return self.peak == self.lower_bound


def _check_arrays(starts: np.ndarray, ends: np.ndarray) -> None:
    if starts.size and (starts > ends).any():
        raise ValueError("every interval must satisfy start <= end")
    if starts.size and (starts < 0).any():
        raise ValueError("interval starts must be non-negative")


def _interval_arrays(intervals: Intervals) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(intervals, ExtractionResult):
        starts, ends = intervals.starts, intervals.ends
    else:
        starts = np.array([iv.start for iv in intervals], dtype=np.int64)
        ends = np.array([iv.end for iv in intervals], dtype=np.int64)
    _check_arrays(starts, ends)
    return starts, ends


#: Cells (block rows x end columns) one exact sub-block of the window-bound
#: sweep holds; it caps the kernel's memory at ``O(block x k)`` instead of a
#: ``k x k`` table.
_BLOCK_CELLS = 1 << 14

#: Unique starts per block of the window-bound sweep; each block decides from
#: one row of per-end bounds which end columns it must evaluate exactly.
_PRUNE_ROWS = 32


def _window_bound(starts: np.ndarray, ends: np.ndarray, base: np.ndarray) -> int:
    """``max(base)`` or, if larger, ``max`` over windows ``[i, j]`` of
    ``ceil((T(i, j) + base[i..j].sum()) / (j - i + 1))``.

    ``T(i, j)`` counts the intervals inside the window.  Only windows whose
    left edge is some interval's start and whose right edge is some
    interval's end can maximise the ratio, so ``i`` runs over the unique
    starts and ``j`` over the unique ends.  Every colour is below
    ``base.size``, so presence counts rank both without a sort, and one
    radix sort on the narrowest unsigned key groups the intervals by start.

    The sweep keeps an incumbent ``best``, seeded with the base peak, and
    takes blocks of ``_PRUNE_ROWS`` unique starts from last to first,
    carrying a per-end count of every interval that starts past the block.
    Per block, one row bounds every window of the block.  ``top[j]`` is the
    numerator of the window from the block's *first* start to end ``j``:
    it holds every interval that any window of the block ending at ``j``
    holds and, as ``base >= 0``, every base load too.  ``least[j]`` is the
    width of the window from the block's *last* start, the narrowest.  A
    column with ``top <= best * least`` has no ratio above ``best``, and as
    an integer comparison that test is exact.  Only the columns up to the
    last one that fails it are evaluated, in sub-blocks of at most
    ``_BLOCK_CELLS`` cells: each counts its own intervals, sums them over
    its rows on top of the carried counts and prefix-sums along the ends.
    Columns whose end lies before the block's first start hold no interval
    and are skipped.  The remaining windows with ``j < i`` contain no
    interval and a non-positive base, so clipping their width to 1 keeps
    them at or below ``best``.

    ``base`` is the non-negative per-colour load (zeros for the paper's
    unweighted bound).  Every ratio is a small-integer quotient, so float64
    with the ``1e-12`` guard gives the exact ceiling.
    """
    n_colors = base.size
    start_counts = np.bincount(starts, minlength=n_colors)
    end_present = np.bincount(ends, minlength=n_colors) > 0
    unique_starts = np.flatnonzero(start_counts)
    unique_ends = np.flatnonzero(end_present)
    # Unique ends before each colour: the rank of every colour that is an end.
    ends_below = np.cumsum(end_present) - end_present
    group_sizes = start_counts[unique_starts]
    offsets = np.concatenate(([0], np.cumsum(group_sizes)))
    # Order inside a start group is free: only its per-end counts are used.
    order = np.argsort(starts.astype(np.min_scalar_type(n_colors)), kind="stable")
    start_idx = np.repeat(np.arange(unique_starts.size), group_sizes)
    end_idx = ends_below[ends[order]]
    n_ends = unique_ends.size
    # A window's base is ``prefix[end + 1] - prefix[start]``.
    prefix = np.concatenate(([0], np.cumsum(base)))
    end_prefix = prefix[unique_ends + 1]
    start_prefix = prefix[unique_starts]

    best = int(base.max())
    carry = np.zeros(n_ends, dtype=np.int64)  # per-end count of intervals past the block
    hi = unique_starts.size
    while hi > 0:
        lo = max(hi - _PRUNE_ROWS, 0)
        # Columns run from the first end at or after the block's first start.
        col = int(ends_below[unique_starts[lo]])
        after = carry[col:] + np.bincount(
            end_idx[offsets[lo] : offsets[hi]] - col, minlength=n_ends - col
        )
        top = np.cumsum(after) + end_prefix[col:] - start_prefix[lo]
        least = np.maximum(unique_ends[col:] + 1 - unique_starts[hi - 1], 1)
        hot = np.flatnonzero(top > best * least)
        if hot.size:
            n_cols = int(hot[-1]) + 1
            height = max(1, _BLOCK_CELLS // n_cols)
            counts = carry[col : col + n_cols].copy()  # intervals past the sub-block
            edges = unique_ends[col : col + n_cols] + 1
            end_base = end_prefix[col : col + n_cols]
            sub_hi = hi
            while sub_hi > lo:
                sub_lo = max(sub_hi - height, lo)
                first, last = offsets[sub_lo], offsets[sub_hi]
                cols = end_idx[first:last] - col
                keep = cols < n_cols
                # Rows run from the sub-block's last start (row 0) to its first.
                n_rows = sub_hi - sub_lo
                cells = np.bincount(
                    ((sub_hi - 1) - start_idx[first:last][keep]) * n_cols + cols[keep],
                    minlength=n_rows * n_cols,
                ).reshape(n_rows, n_cols)
                cells[0] += counts
                np.cumsum(cells, axis=0, out=cells)
                counts = cells[-1].copy()
                np.cumsum(cells, axis=1, out=cells)
                cells += end_base
                cells -= start_prefix[sub_lo:sub_hi][::-1, None]
                widths = np.maximum(edges - unique_starts[sub_lo:sub_hi][::-1, None], 1)
                best = max(best, int(np.ceil((cells / widths).max() - 1e-12)))
                sub_hi = sub_lo
        carry[col:] = after
        hi = lo
    return best


def bcp_lower_bound(intervals: Intervals) -> int:
    """Algorithm 1: lower bound on the bottleneck of any valid colouring.

    Returns 0 for an empty instance.
    """
    return _lower_bound(*_interval_arrays(intervals))


def _lower_bound(starts: np.ndarray, ends: np.ndarray) -> int:
    if starts.size == 0:
        return 0
    return _window_bound(starts, ends, np.zeros(int(ends.max()) + 1, dtype=np.int64))


def weighted_lower_bound(
    intervals: Intervals,
    base_loads: np.ndarray,
) -> int:
    """Lower bound (in fact the exact optimum) of the base-load-aware BCP.

    Args:
        intervals: the toggle intervals.
        base_loads: non-negative per-colour unavoidable load, length at
            least ``max(end) + 1``.

    Returns:
        ``max(max base load, max over windows of
        ceil((contained intervals + window base load) / window width))``.
    """
    starts, ends = _interval_arrays(intervals)
    return weighted_peak_bound(starts, ends, base_loads)


def weighted_peak_bound(
    starts: np.ndarray, ends: np.ndarray, base_loads: np.ndarray
) -> int:
    """:func:`weighted_lower_bound` on raw start/end arrays.

    This is the evaluation primitive of the I-Ordering search: because the
    bound is *exact* (Hall's condition reduces to contiguous windows, see
    :func:`solve_weighted_bcp`), the optimal peak of a candidate ordering can
    be computed from interval arrays alone — no
    :class:`~repro.core.intervals.ToggleInterval` objects, no colouring.
    """
    base = np.asarray(base_loads, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.size == 0:
        return int(base.max()) if base.size else 0
    _check_arrays(starts, ends)
    if base.size <= int(ends.max()):
        raise ValueError("base_loads shorter than the largest interval end")
    if (base < 0).any():
        raise ValueError("base_loads must be non-negative")
    return _window_bound(starts, ends, base)


def greedy_coloring(
    intervals: Intervals,
    capacity: Union[int, np.ndarray],
    n_colors: Optional[int] = None,
) -> np.ndarray:
    """Algorithm 2: earliest-deadline-first colouring.

    The paper sweeps the colours left to right with a min-heap of the
    released intervals keyed by ``(end, index)`` and pops up to each
    colour's budget.  This takes the intervals in that same ``(end, index)``
    order instead and gives each the earliest colour at or after its start
    that still has budget.  The two agree colour for colour: in the sweep an
    interval never loses a colour to one with a larger key, because the heap
    serves smaller keys first, so the colours of the first ``i`` intervals
    in key order do not depend on the rest.  The ``i``-th interval then gets,
    in the sweep, the first colour from its start on whose budget the first
    ``i - 1`` left unspent, which is the colour it gets here.  It misses its
    deadline in the sweep exactly when no such colour lies within its end,
    which is exactly when it raises here.

    Args:
        intervals: the intervals to colour.
        capacity: maximum number of intervals that may receive each colour —
            either a scalar (the paper's ``LB``) or a per-colour array
            (``B - base`` for the weighted solver).
        n_colors: number of colours available; defaults to ``max(end) + 1``.

    Returns:
        One colour per interval, aligned with the input order.

    Raises:
        InfeasibleColoringError: if some interval cannot be coloured within
            its window under the given capacities (non-positive budgets
            count as none).  With ``capacity`` equal to the corresponding
            lower bound this never happens.
    """
    starts, ends = _interval_arrays(intervals)
    return _greedy(starts, ends, capacity, n_colors)


def _greedy(
    starts: np.ndarray,
    ends: np.ndarray,
    capacity: Union[int, np.ndarray],
    n_colors: Optional[int] = None,
) -> np.ndarray:
    k = int(starts.size)
    if k == 0:
        return np.full(0, -1, dtype=np.int64)
    max_end = int(ends.max())
    if n_colors is None:
        n_colors = max_end + 1
    if n_colors <= max_end:
        raise ValueError("n_colors must exceed the largest interval end")
    if np.isscalar(capacity):
        capacities = np.full(n_colors, int(capacity), dtype=np.int64)
    else:
        capacities = np.asarray(capacity, dtype=np.int64)
        if capacities.shape[0] < n_colors:
            raise ValueError("capacity array shorter than the number of colours")
    # ``free[c]`` points at or before the first colour from ``c`` on with
    # budget left (``max_end + 1`` is a sentinel past every window); a colour
    # whose budget runs out points on to ``c + 1``, and each lookup halves its
    # path.  The loop is sequential; plain lists keep its per-step cost low.
    budgets = np.clip(capacities[: max_end + 1], 0, None)
    span = np.arange(max_end + 2)
    free = np.where(np.append(budgets, 1) > 0, span, span + 1).tolist()
    budgets = budgets.tolist()
    start_of = starts.tolist()
    end_of = ends.tolist()
    colors = [-1] * k
    for idx in np.argsort(ends, kind="stable").tolist():
        color = start_of[idx]
        while free[color] != color:
            free[color] = free[free[color]]
            color = free[color]
        if color > end_of[idx]:
            raise InfeasibleColoringError(
                f"interval [{start_of[idx]}, {end_of[idx]}] has no colour with budget left"
            )
        colors[idx] = color
        budgets[color] -= 1
        if not budgets[color]:
            free[color] = color + 1
    return np.array(colors, dtype=np.int64)


def _histogram(colors: np.ndarray, n_colors: int) -> np.ndarray:
    return np.bincount(colors, minlength=n_colors).astype(np.int64)


def solve_bcp(intervals: Intervals, n_colors: Optional[int] = None) -> BCPSolution:
    """Solve the pure (paper) BCP optimally.

    The achieved peak always equals :func:`bcp_lower_bound`, which is the
    paper's optimality argument.
    """
    starts, ends = _interval_arrays(intervals)
    if n_colors is None:
        n_colors = int(ends.max()) + 1 if ends.size else 0
    if starts.size == 0:
        return BCPSolution(
            colors=np.zeros(0, dtype=np.int64),
            histogram=np.zeros(n_colors, dtype=np.int64),
            peak=0,
            lower_bound=0,
        )
    lower = _lower_bound(starts, ends)
    colors = _greedy(starts, ends, lower, n_colors=n_colors)
    histogram = _histogram(colors, n_colors)
    peak = int(histogram.max()) if histogram.size else 0
    return BCPSolution(colors=colors, histogram=histogram, peak=peak, lower_bound=lower)


def solve_weighted_bcp(
    intervals: Intervals,
    base_loads: np.ndarray,
) -> BCPSolution:
    """Solve the base-load-aware BCP optimally.

    The reported ``peak`` is ``max_c (base_c + h_c)`` — the true peak input
    toggle count of the filled pattern set for the given ordering.
    """
    starts, ends = _interval_arrays(intervals)
    base = np.asarray(base_loads, dtype=np.int64)
    n_colors = base.shape[0]
    if starts.size == 0:
        peak = int(base.max()) if base.size else 0
        return BCPSolution(
            colors=np.zeros(0, dtype=np.int64),
            histogram=np.zeros(n_colors, dtype=np.int64),
            peak=peak,
            lower_bound=peak,
        )
    bound = weighted_peak_bound(starts, ends, base)
    colors: Optional[np.ndarray] = None
    # The bound is exact (Hall's condition over contiguous windows), so the
    # first iteration succeeds; the loop is purely defensive.
    for candidate in range(bound, bound + starts.size + 1):
        try:
            colors = _greedy(starts, ends, candidate - base, n_colors=n_colors)
            break
        except InfeasibleColoringError:
            continue
    if colors is None:  # pragma: no cover - unreachable by construction
        raise InfeasibleColoringError("weighted BCP could not be coloured")
    histogram = _histogram(colors, n_colors)
    peak = int((histogram + base).max()) if n_colors else 0
    return BCPSolution(colors=colors, histogram=histogram, peak=peak, lower_bound=bound)
