"""Shared test utilities: brute-force and reference solvers, cube builders.

The brute-force solvers are deliberately tiny and obviously correct; they
exist so the optimised implementations can be checked against exhaustive
search on small instances (unit tests pin specific cases, hypothesis tests
sweep random ones).

The ``reference_*`` functions are the straightforward formulations the fast
kernels replaced: per-row loops for the stretch kernels and the X-stretch
histogram, the dense window table for the BCP bound and the per-step boolean
masks for the greedy tours, and the min-heap sweep of the BCP colouring.
The fill kernels' one-pass int64 forms (:func:`reference_fill_runs`,
:func:`reference_assign_cells`), MT-fill through stretches and Adj-fill
one pattern at a time are references too.
They are the oracles of the differential tests in ``test_kernels.py``.
The topological-order, compile, capacitance and switching references are
the name-keyed, per-gate, per-net and dense formulations of the circuit and
power layers, the oracles of ``test_differential_fuzz.py``.  The id-keyed
per-gate loops the netlist's array passes replaced — the
:meth:`Circuit.from_columns` checks and validation
(:func:`reference_from_columns`), the first-in first-out Kahn
(:func:`reference_topological_gates`), the compiler
(:func:`reference_compile_columns`), the node tuples built from the
compiled arrays (:func:`reference_node_prog`), the lane release schedule and
the capacitance rows — are the oracles of ``test_circuit_netlist.py``.
:func:`grading_kernel` pins the fault simulator's kernel.  The reference
simulators and the dict PODEM are in ``tests/reference_engines.py``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from array import array
from collections import deque
from contextlib import contextmanager
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from unittest import mock

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import _PRIMARY_INPUT, _UNDRIVEN, Circuit, CircuitError
from repro.core.intervals import ExtractionResult, Stretches, ToggleInterval
from repro.cubes.bits import ONE, X, ZERO
from repro.cubes.cube import TestSet
from repro.engine.compile import _OPCODE_OF, CompiledCircuit
from repro.power.capacitance import TechnologyParameters, _capacitances


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


def reference_fill_runs(
    out: np.ndarray,
    rows: np.ndarray,
    starts: Union[int, np.ndarray],
    stops: Union[int, np.ndarray],
    values: np.ndarray,
) -> None:
    """:func:`repro.core.intervals.fill_runs` as one pass of int64 cell indices."""
    starts = np.broadcast_to(starts, rows.shape)
    lengths = np.broadcast_to(stops, rows.shape) - starts
    total = int(lengths.sum())
    if total == 0:
        return
    shift = rows * out.shape[1] + starts - (np.cumsum(lengths) - lengths)
    np.put(out, np.arange(total) + np.repeat(shift, lengths), np.repeat(values, lengths))


def reference_assign_cells(extraction: ExtractionResult, colors: np.ndarray) -> np.ndarray:
    """The reconstruction of :func:`repro.core.intervals.apply_assignment`, cell by cell.

    The X cells of ``extraction.prefilled``, in row-major order, are the
    interval interiors interval by interval; each takes its interval's left
    value up to the colour's column and the right value past it.
    """
    colors = np.asarray(colors, dtype=np.int64)
    filled = extraction.prefilled.copy()
    cells = np.flatnonzero(filled == X)
    gaps = extraction.right_cols - extraction.left_cols - 1
    assert cells.size == int(gaps.sum())
    owner = np.repeat(np.arange(gaps.size), gaps)
    left_values = extraction.left_values[owner]
    past_toggle = cells % extraction.n_patterns > colors[owner]
    np.put(filled, cells, np.where(past_toggle, 1 - left_values, left_values))
    return filled


def reference_stretch_histogram(patterns: TestSet) -> Dict[int, int]:
    """X-run-length histogram of the pin-major matrix, one cell at a time."""
    histogram: Dict[int, int] = {}
    for row in patterns.pin_matrix():
        run = 0
        for value in row:
            if value == X:
                run += 1
            elif run:
                histogram[run] = histogram.get(run, 0) + 1
                run = 0
        if run:
            histogram[run] = histogram.get(run, 0) + 1
    return histogram


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


def reference_mt_fill_runs(matrix: np.ndarray) -> np.ndarray:
    """MT-fill through :class:`Stretches`: hold the ends, then each inner run's left value."""
    data = matrix.copy()
    stretches = Stretches.of(data)
    stretches.fill_ends(data)
    reference_fill_runs(
        data, stretches.rows, stretches.left + 1, stretches.right, stretches.left_values
    )
    return data


def reference_adj_fill(matrix: np.ndarray, first_pattern_fill: int) -> np.ndarray:
    """Adj-fill one pattern at a time: each X copies the pin's previous (filled) value."""
    data = matrix.copy()
    if data.size == 0:
        return data
    data[0, data[0] == X] = first_pattern_fill
    for row in range(1, data.shape[0]):
        mask = data[row] == X
        data[row, mask] = data[row - 1, mask]
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


def reference_greedy_coloring(
    starts: np.ndarray, ends: np.ndarray, capacity, n_colors: Optional[int] = None
) -> np.ndarray:
    """Algorithm 2 as the paper states it: a colour sweep with a min-heap of deadlines.

    Sweep the colours left to right; at each colour release the intervals
    that start there into a heap keyed by ``(end, index)`` and pop up to the
    colour's budget of them.  An interval still in the heap at its end
    missed its deadline.  :func:`repro.core.bcp._greedy` must give the same
    colours, or raise :class:`~repro.core.bcp.InfeasibleColoringError` too.
    """
    from repro.core.bcp import InfeasibleColoringError

    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    k = int(starts.size)
    if k == 0:
        return np.full(0, -1, dtype=np.int64)
    max_end = int(ends.max())
    n_colors = max_end + 1 if n_colors is None else n_colors
    if np.isscalar(capacity):
        budgets = [max(int(capacity), 0)] * n_colors
    else:
        budgets = np.clip(np.asarray(capacity, dtype=np.int64), 0, None).tolist()
    order = np.argsort(starts, kind="stable").tolist()
    colors = [-1] * k
    heap: list = []
    cursor = 0
    for color in range(max_end + 1):
        while cursor < k and starts[order[cursor]] == color:
            idx = order[cursor]
            heapq.heappush(heap, (int(ends[idx]), idx))
            cursor += 1
        for __ in range(min(budgets[color], len(heap))):
            colors[heapq.heappop(heap)[1]] = color
        if heap and heap[0][0] <= color:
            raise InfeasibleColoringError(f"interval ending at {heap[0][0]} missed its deadline")
    return np.array(colors, dtype=np.int64)


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


def reference_topological_order(circuit: Circuit) -> List[str]:
    """Kahn's algorithm over net names: the name-keyed formulation.

    The initial ready queue is sorted by name and dependents join it in
    insertion order, first-in first-out — the order
    :meth:`Circuit.topological_order` must reproduce from integer ids.
    """
    gates = circuit.gates
    sources = set(circuit.primary_inputs) | {ff.output for ff in circuit.flip_flops}
    comb = {
        name: gate
        for name, gate in gates.items()
        if not gate.gate_type.is_sequential
    }
    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[str]] = {}
    for name, gate in comb.items():
        count = 0
        for net in gate.inputs:
            if net in comb:
                dependents.setdefault(net, []).append(name)
                count += 1
            elif net not in sources and net not in gates:
                raise CircuitError(f"gate {name!r} reads undriven net {net!r}")
        indegree[name] = count

    ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
    order: List[str] = []
    while ready:
        name = ready.popleft()
        order.append(name)
        for dependent in dependents.get(name, []):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(comb):
        raise CircuitError("combinational logic contains a cycle")
    return order


def _first_repeat(items: Sequence) -> Optional[object]:
    seen: set = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def reference_from_columns(
    name: str,
    net_names: Sequence[str],
    inputs: Sequence[int],
    gate_net: Sequence[int],
    gate_type: Sequence[GateType],
    gate_fanin: Sequence[Tuple[int, ...]],
    outputs: Sequence[int],
) -> Circuit:
    """:meth:`Circuit.from_columns` as per-gate loops over the columns.

    The checks run in the same order and raise the same messages; the
    circuit is then validated by :func:`reference_validate`.
    """
    circuit = Circuit(name)
    names = list(net_names)
    repeated = _first_repeat(names)
    if repeated is not None:
        raise CircuitError(f"duplicate net name {repeated!r}")
    gate_net = array("i", gate_net)
    gate_type = list(gate_type)
    gate_fanin = [tuple(fanin) for fanin in gate_fanin]
    if not len(gate_net) == len(gate_type) == len(gate_fanin):
        raise CircuitError("gate columns differ in length")
    mentioned = list(chain(inputs, gate_net, chain.from_iterable(gate_fanin), outputs))
    if mentioned and not 0 <= min(mentioned) <= max(mentioned) < len(names):
        raise CircuitError("net id out of range")

    driver = array("i", [_UNDRIVEN]) * len(names)
    for net in inputs:
        if driver[net] == _PRIMARY_INPUT:
            raise CircuitError(f"duplicate primary input {names[net]!r}")
        driver[net] = _PRIMARY_INPUT
    for index, (net, kind, fanin) in enumerate(zip(gate_net, gate_type, gate_fanin)):
        if driver[net] == _PRIMARY_INPUT:
            raise CircuitError(f"net {names[net]!r} is a primary input")
        if driver[net] != _UNDRIVEN:
            raise CircuitError(f"net {names[net]!r} already driven by a gate")
        if not kind.arity_ok(len(fanin)):
            raise CircuitError(f"gate {names[net]!r}: {kind.name} cannot take {len(fanin)} inputs")
        driver[net] = index
    repeated = _first_repeat(outputs)
    if repeated is not None:
        raise CircuitError(f"duplicate primary output {names[repeated]!r}")

    circuit._net_names = names
    circuit._net_id = None
    circuit._driver = driver
    circuit._inputs = list(inputs)
    circuit._outputs = list(outputs)
    circuit._output_set = set(outputs)
    circuit._gate_net = gate_net
    circuit._gate_type = gate_type
    circuit._gate_fanin = gate_fanin
    reference_validate(circuit)
    return circuit


def reference_validate(circuit: Circuit) -> None:
    """:meth:`Circuit.validate` as per-gate loops, then :func:`reference_topological_gates`."""
    names, driver = circuit._net_names, circuit._driver
    for index, kind in enumerate(circuit._gate_type):
        if kind is GateType.INPUT:
            gate = names[circuit._gate_net[index]]
            raise CircuitError(f"gate {gate!r}: INPUT is a primary input, not a gate")
    if _UNDRIVEN in driver:
        for index, fanin in enumerate(circuit._gate_fanin):
            for net in fanin:
                if driver[net] == _UNDRIVEN:
                    gate = names[circuit._gate_net[index]]
                    raise CircuitError(f"gate {gate!r} reads undriven net {names[net]!r}")
        for net in circuit._outputs:
            if driver[net] == _UNDRIVEN:
                raise CircuitError(f"primary output {names[net]!r} is undriven")
    reference_topological_gates(circuit)


def reference_topological_gates(circuit: Circuit) -> List[int]:
    """Kahn's algorithm over gate indices, one queue pop at a time.

    The initial ready queue is sorted by net name and dependents join it in
    insertion order, first-in first-out: the order the wave form of
    :meth:`Circuit.topological_order` must reproduce.
    """
    names, driver, gate_net = circuit._net_names, circuit._driver, circuit._gate_net
    dff = GateType.DFF
    comb = [kind is not dff for kind in circuit._gate_type]
    indegree = [0] * len(comb)
    dependents: List[List[int]] = [[] for _ in comb]
    for index, fanin in enumerate(circuit._gate_fanin):
        if not comb[index]:
            continue
        count = 0
        for net in fanin:
            source = driver[net]
            if source >= 0:
                if comb[source]:
                    dependents[source].append(index)
                    count += 1
            elif source == _UNDRIVEN:
                gate = names[gate_net[index]]
                raise CircuitError(f"gate {gate!r} reads undriven net {names[net]!r}")
        indegree[index] = count

    ready = deque(
        sorted(
            (index for index, deg in enumerate(indegree) if deg == 0 and comb[index]),
            key=lambda index: names[gate_net[index]],
        )
    )
    order: List[int] = []
    while ready:
        index = ready.popleft()
        order.append(index)
        for dependent in dependents[index]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != sum(comb):
        raise CircuitError("combinational logic contains a cycle")
    return order


def _program_arrays(
    n_rows: int, ops: Sequence[int], fanins: Sequence[Sequence[int]]
) -> Dict[str, np.ndarray]:
    """The array fields of a :class:`CompiledCircuit`, one node at a time.

    ``ops`` and ``fanins`` give each node's opcode and fan-in rows; the
    result holds ``ops``, ``fanin_rows``, ``node_offsets`` and
    ``last_reader`` (row -> position of the last node reading it, ``-1``:
    none).
    """
    fanin_rows: List[int] = []
    node_offsets = [0]
    last = [-1] * n_rows
    for pos, src in enumerate(fanins):
        for row in src:
            fanin_rows.append(row)
            last[row] = pos
        node_offsets.append(len(fanin_rows))
    return {
        "ops": np.asarray(ops, dtype=np.int8),
        "fanin_rows": np.asarray(fanin_rows, dtype=np.int32),
        "node_offsets": np.asarray(node_offsets, dtype=np.int32),
        "last_reader": np.asarray(last, dtype=np.int32),
    }


def reference_node_prog(program: CompiledCircuit) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """``node_prog`` from the program's arrays, as one list comprehension.

    The fan-in rows are boxed from one list of row ints, which the output
    rows share.
    """
    n_rows = program.n_inputs + program.n_nodes
    rows = list(range(n_rows))
    sources = list(map(rows.__getitem__, array("i", program.fanin_rows.tobytes())))
    bounds = array("i", program.node_offsets.tobytes())
    return list(
        zip(
            program.ops.tolist(),
            rows[program.n_inputs :],
            [tuple(sources[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        )
    )


def reference_compile_columns(circuit: Circuit) -> CompiledCircuit:
    """:func:`repro.engine.compile.compile_circuit` as a per-gate loop over the columns.

    The order comes from :func:`reference_topological_gates`.  The loop's
    node tuples are stored as the program's ``node_prog``.
    """
    columns = circuit.columns()
    names, gate_net = columns.net_names, columns.gate_net
    pins, order = columns.test_pins, reference_topological_gates(circuit)
    n_inputs = len(pins)
    rows = list(range(n_inputs + len(order)))
    gate_rows = rows[n_inputs:]
    row_of = [-1] * len(names)
    for net, row in zip(pins, rows):
        row_of[net] = row
    for index, row in zip(order, gate_rows):
        row_of[gate_net[index]] = row
    net_names: List[str] = [names[net] for net in pins]
    net_names.extend([names[gate_net[index]] for index in order])
    node_prog: List[Tuple[int, int, Tuple[int, ...]]] = []
    gate_type, gate_fanin = columns.gate_type, columns.gate_fanin
    for index, out in zip(order, gate_rows):
        node_prog.append(
            (_OPCODE_OF[gate_type[index]], out, tuple(row_of[net] for net in gate_fanin[index]))
        )
    program = CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        n_inputs=n_inputs,
        output_rows=np.asarray([row_of[net] for net in columns.observed], dtype=np.int32),
        **_program_arrays(
            len(rows), [op for op, _, _ in node_prog], [src for _, _, src in node_prog]
        ),
    )
    program.__dict__["node_prog"] = node_prog
    return program


def reference_release_schedule(
    program: CompiledCircuit, block: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`repro.engine.packed.release_schedule` over the ``node_prog`` tuples."""
    node_prog = program.node_prog
    n_nodes = len(node_prog)
    fanins = np.fromiter(map(len, (src for _, _, src in node_prog)), dtype=np.int32, count=n_nodes)
    readers = np.fromiter(
        chain.from_iterable(src for _, _, src in node_prog), dtype=np.int32, count=int(fanins.sum())
    )
    last = np.full(program.n_nets, -1, dtype=np.int32)
    np.maximum.at(last, readers, np.repeat(np.arange(n_nodes, dtype=np.int32), fanins))
    np.maximum(last, np.arange(-program.n_inputs, n_nodes, dtype=np.int32), out=last)
    last //= block
    last += 1
    rows = np.argsort(last, kind="stable")
    n_blocks = -(-n_nodes // block)
    return rows, np.searchsorted(last[rows], np.arange(n_blocks + 2))


def reference_row_capacitances(
    circuit: Circuit, technology: TechnologyParameters = TechnologyParameters(), seed: int = 0
) -> np.ndarray:
    """:func:`repro.power.capacitance.row_capacitances` over the fan-in tuples."""
    columns = circuit.columns()
    n_ids = len(columns.net_names)
    gate_net = np.asarray(columns.gate_net, dtype=np.int64)
    net_ids = np.concatenate([np.asarray(columns.inputs, dtype=np.int64), gate_net])
    reads = np.fromiter(chain.from_iterable(columns.gate_fanin), dtype=np.int64)
    reads = np.concatenate([reads, np.asarray(columns.outputs, dtype=np.int64)])
    readers = np.bincount(reads, minlength=n_ids)[net_ids]
    by_id = np.zeros(n_ids, dtype=np.float64)
    by_id[net_ids] = _capacitances(readers, technology, seed)
    order = np.asarray(reference_topological_gates(circuit), dtype=np.int64)
    rows = np.concatenate([np.asarray(columns.test_pins, dtype=np.int64), gate_net[order]])
    return by_id[rows]


def reference_compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile by net name, with every lazy field precomputed.

    The row order comes from :func:`reference_topological_order` and the
    levels from a name-keyed walk of it, so nothing is shared with the
    id-based :meth:`Circuit.columns` path.  The fields
    :func:`repro.engine.compile.compile_circuit` derives on first access
    (:func:`lazy_program_fields`), ``node_prog`` among them, are stored on
    the instance here, each built independently of the program's arrays.
    """
    circuit.validate()
    inputs = circuit.combinational_inputs
    order = reference_topological_order(circuit)
    levels: Dict[str, int] = dict.fromkeys(inputs, 0)
    for name in order:
        gate = circuit.get_gate(name)
        levels[name] = 1 + max((levels.get(net, 0) for net in gate.inputs), default=0)
    net_names = list(inputs) + list(order)
    net_index = {net: row for row, net in enumerate(net_names)}
    node_prog = [
        (
            _OPCODE_OF[circuit.get_gate(name).gate_type],
            net_index[name],
            tuple(net_index[net] for net in circuit.get_gate(name).inputs),
        )
        for name in order
    ]
    output_rows = np.asarray(
        [net_index[net] for net in circuit.combinational_outputs], dtype=np.int32
    )
    out_node = [-1] * len(net_names)
    reader_lists: List[List[int]] = [[] for _ in net_names]
    for pos, name in enumerate(order):
        out_node[net_index[name]] = pos
        for net in circuit.get_gate(name).inputs:
            reader_lists[net_index[net]].append(pos)
    program = CompiledCircuit(
        name=circuit.name,
        net_names=net_names,
        n_inputs=len(inputs),
        output_rows=output_rows,
        **_program_arrays(
            len(net_names),
            [_OPCODE_OF[circuit.get_gate(name).gate_type] for name in order],
            [[net_index[net] for net in circuit.get_gate(name).inputs] for name in order],
        ),
    )
    program.__dict__.update(
        node_prog=node_prog,
        net_index=net_index,
        node_levels=[levels[name] for name in order],
        out_node=out_node,
        reader_lists=reader_lists,
        _observable_set=frozenset(net_index[net] for net in circuit.combinational_outputs),
    )
    return program


def lazy_program_fields() -> List[str]:
    """Names of the :class:`CompiledCircuit` fields built on first access."""
    return [
        name
        for name, attr in vars(CompiledCircuit).items()
        if isinstance(attr, functools.cached_property)
    ]


def reference_capacitances(
    circuit: Circuit, technology: TechnologyParameters, seed: int
) -> Dict[str, float]:
    """Per-net scalar loop of the synthetic extraction: one ``rng.random()`` per net.

    Fan-out counts come from :meth:`Circuit.fanout_map` (reader lists, plus
    one per primary output) rather than :meth:`Circuit.fanout_counts`.  Each
    capacitance is rounded to a whole number of 2**-24 fF quanta.
    """
    rng = np.random.default_rng(seed)
    fanout = {net: len(readers) for net, readers in circuit.fanout_map().items()}
    for net in circuit.primary_outputs:
        fanout[net] = fanout.get(net, 0) + 1
    capacitances: Dict[str, float] = {}
    for net in circuit.nets():
        readers = max(1, fanout.get(net, 0))
        gate_load = technology.gate_input_cap_ff * readers
        wire_lottery = 1.0 + technology.wire_variation * (2.0 * rng.random() - 1.0)
        wire_load = (
            technology.base_wire_cap_ff
            + technology.wire_cap_per_fanout_ff * (readers ** 1.15)
        ) * wire_lottery
        capacitances[net] = float(np.round((gate_load + wire_load) * 2**24) / 2**24)
    return capacitances


def reference_switching(values: np.ndarray, caps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense toggle table and its capacitance-weighted column sums.

    Returns ``(toggles, switched)`` per boundary, the quantities
    :class:`repro.power.switching.SwitchingFold` computes in row blocks.
    """
    toggles = values[:, 1:] != values[:, :-1]
    return toggles.sum(axis=0).astype(np.int64), (toggles * caps[:, None]).sum(axis=0)


@contextmanager
def grading_kernel(kernel: str) -> Iterator[None]:
    """Grade every fault-simulation run in the block on ``kernel``.

    ``"lanes"`` or ``"faults"`` replaces
    :func:`repro.engine.fault.resolve_grading_kernel`, which otherwise picks
    the kernel from the run's shape; ``"auto"`` leaves that choice alone.
    """
    if kernel == "auto":
        yield
        return
    if kernel not in ("lanes", "faults"):
        raise ValueError(f"unknown grading kernel {kernel!r}")
    with mock.patch(
        "repro.engine.fault.resolve_grading_kernel",
        lambda n_patterns, n_faults: kernel,
    ):
        yield
