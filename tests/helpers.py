"""Shared test utilities: brute-force and reference solvers, cube builders.

The brute-force solvers are deliberately tiny and obviously correct; they
exist so the optimised implementations can be checked against exhaustive
search on small instances (unit tests pin specific cases, hypothesis tests
sweep random ones).

The ``reference_*`` functions are the straightforward formulations the fast
kernels replaced: per-row loops for the stretch kernels, the dense window
table for the BCP bound and the per-step boolean masks for the greedy tours.
They are the oracles of the differential tests in ``test_kernels.py``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import ToggleInterval
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestSet


def brute_force_min_peak(patterns: TestSet) -> int:
    """Exhaustively search every X-fill and return the minimum peak toggles.

    Exponential in the number of X bits; callers must keep instances small
    (the tests cap the X count at ~16).
    """
    data = patterns.matrix.copy()
    x_positions = np.argwhere(data == X)
    n_x = x_positions.shape[0]
    if n_x > 20:
        raise ValueError(f"brute force limited to 20 X bits, got {n_x}")
    best = None
    for assignment in itertools.product((ZERO, ONE), repeat=n_x):
        candidate = data.copy()
        for (row, col), value in zip(x_positions, assignment):
            candidate[row, col] = value
        if candidate.shape[0] < 2:
            peak = 0
        else:
            peak = int(np.count_nonzero(candidate[1:] != candidate[:-1], axis=1).max())
        if best is None or peak < best:
            best = peak
    return best if best is not None else 0


def brute_force_bcp(intervals: Sequence[ToggleInterval], base: Sequence[int] = ()) -> int:
    """Exhaustively search every colouring and return the minimum bottleneck.

    ``base`` optionally supplies per-colour base loads (the weighted variant).
    """
    if not intervals and not len(base):
        return 0
    n_colors = max(
        [iv.end + 1 for iv in intervals] + [len(base)] if (intervals or len(base)) else [0]
    )
    base_arr = np.zeros(n_colors, dtype=np.int64)
    base_arr[: len(base)] = np.asarray(base, dtype=np.int64)
    if not intervals:
        return int(base_arr.max()) if base_arr.size else 0
    choices = [range(iv.start, iv.end + 1) for iv in intervals]
    best = None
    for combo in itertools.product(*choices):
        loads = base_arr.copy()
        for color in combo:
            loads[color] += 1
        peak = int(loads.max())
        if best is None or peak < best:
            best = peak
    return best


def make_interval(start: int, end: int, row: int = 0) -> ToggleInterval:
    """Build a ToggleInterval with plausible column metadata for BCP tests."""
    return ToggleInterval(
        start=start,
        end=end,
        row=row,
        left_col=start,
        right_col=end + 1,
        left_value=ZERO,
        right_value=ONE,
    )


def cube_set_from_rows(rows: Iterable[str]) -> TestSet:
    """Build a TestSet from *pin-major* row strings (one string per pin).

    This matches how the paper draws its examples (each line is one input pin
    across the pattern sequence), which keeps figure transcriptions readable.
    """
    row_list: List[str] = [r.replace(" ", "") for r in rows]
    lengths = {len(r) for r in row_list}
    if len(lengths) != 1:
        raise ValueError("all pin rows must have the same number of patterns")
    pin_matrix = np.array(
        [[{"0": 0, "1": 1, "X": 2, "x": 2}[c] for c in row] for row in row_list],
        dtype=np.int8,
    )
    return TestSet.from_pin_matrix(pin_matrix)


def random_small_cube_set(
    rng: np.random.Generator,
    max_patterns: int = 6,
    max_pins: int = 6,
    max_x: int = 10,
) -> TestSet:
    """Random small cube set with a bounded number of X bits (for brute force)."""
    n_patterns = int(rng.integers(2, max_patterns + 1))
    n_pins = int(rng.integers(1, max_pins + 1))
    data = rng.integers(0, 2, size=(n_patterns, n_pins)).astype(np.int8)
    n_x = int(rng.integers(0, max_x + 1))
    positions = [(int(r), int(c)) for r in range(n_patterns) for c in range(n_pins)]
    rng.shuffle(positions)
    for row, col in positions[: min(n_x, len(positions))]:
        data[row, col] = X
    return TestSet.from_matrix(data)


# -- reference implementations (per-row loops) ---------------------------------
def reference_extract_intervals(
    patterns: TestSet,
) -> Tuple[List[ToggleInterval], np.ndarray, np.ndarray]:
    """``(intervals, base_toggles, prefilled)`` of §V-C, one row at a time."""
    pin = patterns.pin_matrix()
    n_pins, n_patterns = pin.shape
    base = np.zeros(max(n_patterns - 1, 0), dtype=np.int64)
    intervals: List[ToggleInterval] = []
    for row in range(n_pins):
        bits = pin[row]
        specified = np.flatnonzero(bits != X)
        if specified.size == 0:
            bits[:] = ZERO
            continue
        first, last = int(specified[0]), int(specified[-1])
        bits[:first] = bits[first]
        bits[last + 1 :] = bits[last]
        for left, right in zip(specified[:-1].tolist(), specified[1:].tolist()):
            left_value, right_value = int(bits[left]), int(bits[right])
            if right == left + 1:
                if left_value != right_value:
                    base[left] += 1
                continue
            if left_value == right_value:
                bits[left + 1 : right] = left_value
            else:
                intervals.append(
                    ToggleInterval(
                        start=left,
                        end=right - 1,
                        row=row,
                        left_col=left,
                        right_col=right,
                        left_value=left_value,
                        right_value=right_value,
                    )
                )
    return intervals, base, pin


def reference_apply_assignment(
    intervals: Sequence[ToggleInterval], prefilled: np.ndarray, colors: Sequence[int]
) -> np.ndarray:
    """Reconstruct a pin matrix interval by interval (§V-D)."""
    filled = prefilled.copy()
    for interval, color in zip(intervals, colors):
        filled[interval.row, interval.left_col : int(color) + 1] = interval.left_value
        filled[interval.row, int(color) + 1 : interval.right_col] = interval.right_value
    return filled


def reference_mt_fill(matrix: np.ndarray) -> np.ndarray:
    """MT-fill: every X takes the nearest earlier specified bit of its pattern."""
    data = matrix.copy()
    for bits in data:
        specified = np.flatnonzero(bits != X)
        if specified.size == 0:
            bits[:] = ZERO
            continue
        first = int(specified[0])
        bits[:first] = bits[first]
        last_value = bits[first]
        for col in range(first + 1, bits.size):
            if bits[col] == X:
                bits[col] = last_value
            else:
                last_value = bits[col]
    return data


def reference_xstat_phase1(
    pin: np.ndarray, squeeze: str
) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
    """XStat phase 1 on a copy of ``pin``: ``(shrunk pin, [(row, x_col, lv, rv)])``."""
    pin = pin.copy()
    choices: List[Tuple[int, int, int, int]] = []
    for row in range(pin.shape[0]):
        bits = pin[row]
        specified = np.flatnonzero(bits != X)
        if specified.size == 0:
            bits[:] = ZERO
            continue
        first, last = int(specified[0]), int(specified[-1])
        bits[:first] = bits[first]
        bits[last + 1 :] = bits[last]
        for left, right in zip(specified[:-1].tolist(), specified[1:].tolist()):
            if right == left + 1:
                continue
            left_value, right_value = int(bits[left]), int(bits[right])
            if left_value == right_value:
                bits[left + 1 : right] = left_value
                continue
            keep = {"left": left + 1, "right": right - 1}.get(squeeze, (left + right) // 2)
            bits[left + 1 : keep] = left_value
            bits[keep + 1 : right] = right_value
            choices.append((row, keep, left_value, right_value))
    return pin, choices


def reference_xstat_fill(patterns: TestSet, squeeze: str) -> np.ndarray:
    """Full XStat fill (phase 1, then the greedy phase 2); pattern-major result."""
    pin, choices = reference_xstat_phase1(patterns.pin_matrix(), squeeze)
    if pin.shape[1] < 2:
        return pin.T
    left, right = pin[:, :-1], pin[:, 1:]
    profile = np.count_nonzero((left != X) & (right != X) & (left != right), axis=0)

    def pressure(choice: Tuple[int, int, int, int]) -> int:
        return int(max(profile[choice[1] - 1], profile[choice[1]]))

    for row, col, left_value, right_value in sorted(choices, key=pressure, reverse=True):
        if profile[col] <= profile[col - 1]:
            pin[row, col] = left_value
            profile[col] += 1
        else:
            pin[row, col] = right_value
            profile[col - 1] += 1
    return pin.T


def reference_window_bound(
    starts: np.ndarray, ends: np.ndarray, base: Optional[np.ndarray] = None
) -> int:
    """Algorithm 1 on the dense ``unique starts x unique ends`` window table.

    Without ``base`` this is :func:`repro.core.bcp.bcp_lower_bound`; with it,
    :func:`repro.core.bcp.weighted_peak_bound` (the larger of the base peak
    and every window's ``ceil((T + window base) / width)``).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    base_peak = int(base.max()) if base is not None and base.size else 0
    if starts.size == 0:
        return base_peak
    unique_starts = np.unique(starts)
    unique_ends = np.unique(ends)
    count = np.zeros((unique_starts.size, unique_ends.size), dtype=np.int64)
    cells = (np.searchsorted(unique_starts, starts), np.searchsorted(unique_ends, ends))
    np.add.at(count, cells, 1)
    # T[a, b]: intervals with start >= unique_starts[a] and end <= unique_ends[b].
    table = np.cumsum(np.cumsum(count[::-1, :], axis=0)[::-1, :], axis=1)
    if base is not None:
        prefix = np.concatenate(([0], np.cumsum(base)))
        table = table + prefix[unique_ends + 1][None, :] - prefix[unique_starts][:, None]
    widths = unique_ends[None, :] - unique_starts[:, None] + 1
    valid = widths >= 1
    ratios = np.zeros(table.shape, dtype=np.float64)
    ratios[valid] = table[valid] / widths[valid]
    return max(base_peak, int(np.ceil(ratios.max() - 1e-12)))


def reference_nn_tour(patterns: TestSet, distance: str) -> List[int]:
    """Greedy nearest-neighbour tour with fresh boolean ``(n, pins)`` masks per step.

    ``distance`` is ``"isa"`` (conflict count) or ``"xstat"`` (expected
    toggles).  The tour starts at the most specified cube and breaks ties
    towards the lowest index.
    """
    n = len(patterns)
    data = patterns.matrix
    specified = data != X
    visited = np.zeros(n, dtype=bool)
    current = int(np.argmin(patterns.x_counts_per_pattern()))
    permutation = [current]
    visited[current] = True
    for __ in range(n - 1):
        both = specified & specified[current][None, :]
        differs = (data != data[current]) & both
        if distance == "xstat":
            hard = differs.sum(axis=1).astype(np.float64)
            soft = (~both).sum(axis=1).astype(np.float64)
            cost = hard + 0.5 * soft
            cost[visited] = np.inf
        else:
            cost = np.count_nonzero(differs, axis=1).astype(np.int64)
            cost[visited] = np.iinfo(np.int64).max
        nxt = int(np.argmin(cost))
        permutation.append(nxt)
        visited[nxt] = True
        current = nxt
    return permutation
