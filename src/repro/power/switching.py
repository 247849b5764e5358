"""Capacitance-weighted switching activity.

Given an ordered, filled pattern set, the logic simulator tells us which nets
toggle at each pattern boundary; weighting each toggle by the net's extracted
capacitance gives the switched capacitance per capture cycle, the quantity
dynamic power is proportional to.

The toggles arrive *packed*: one ``uint8`` row per net, bit ``j`` (little
endian) set when the net flips between pattern ``j`` and ``j + 1``.  One
fold, :class:`SwitchingFold`, grades them block by block in row order.  The
packed backend streams its flips straight from its big-int lanes, a node
block at a time
(:meth:`~repro.engine.packed.PackedLogicSimulator.fold_flips`), and grades
several pattern sets in one simulation pass (:func:`switching_profiles`);
the naive backend's value table goes through :func:`pack_flips`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.simulator import check_pattern_matrix
from repro.cubes.cube import TestSet
from repro.engine.backend import get_backend
from repro.power.capacitance import CapacitanceModel, row_capacitances


@dataclass
class SwitchingActivity:
    """Per-boundary switching activity of a pattern set on a circuit.

    Attributes:
        circuit_name: circuit the activity belongs to.
        toggles_per_boundary: number of nets toggling at each boundary.
        switched_capacitance_ff: capacitance-weighted toggles per boundary (fF).
        input_toggles_per_boundary: test-pin toggles per boundary (the
            quantity DP-fill optimises), for correlation studies.
    """

    circuit_name: str
    toggles_per_boundary: np.ndarray
    switched_capacitance_ff: np.ndarray
    input_toggles_per_boundary: np.ndarray

    @property
    def peak_toggles(self) -> int:
        """Largest per-boundary circuit toggle count."""
        return int(self.toggles_per_boundary.max()) if self.toggles_per_boundary.size else 0

    @property
    def peak_switched_capacitance_ff(self) -> float:
        """Largest per-boundary switched capacitance (fF)."""
        return float(self.switched_capacitance_ff.max()) if self.switched_capacitance_ff.size else 0.0

    @property
    def total_switched_capacitance_ff(self) -> float:
        """Total switched capacitance over the whole test (fF)."""
        return float(self.switched_capacitance_ff.sum())

    def input_circuit_correlation(self) -> float:
        """Pearson correlation between input toggles and circuit toggles.

        The paper's argument (via ref. [20]) is that this correlation is
        strong, which is why minimising input toggles reduces circuit power.
        Returns 0.0 when either series is constant.
        """
        a = self.input_toggles_per_boundary.astype(np.float64)
        b = self.toggles_per_boundary.astype(np.float64)
        if a.size < 2 or a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])


#: Rows :class:`SwitchingFold` unpacks and weights at a time; it caps the
#: fold's memory at ``O(block x boundaries)`` instead of a float table as
#: large as the whole ``n_nets x n_patterns`` value table.
_BLOCK_ROWS = 16


def pack_flips(values: np.ndarray) -> np.ndarray:
    """Packed boundary flips of a ``(n_nets, n_patterns)`` bool value table.

    The layout of :func:`~repro.engine.packed.boundary_flips`:
    ``(n_nets, ceil((n_patterns - 1) / 8))`` ``uint8``, little-endian bits.
    """
    return np.packbits(values[:, 1:] != values[:, :-1], axis=1, bitorder="little")


class SwitchingFold:
    """Per-boundary toggle counts and switched capacitance, folded in row order.

    Call the fold with ``(first_row, flips)`` for consecutive row blocks of
    packed flips (the layout of :func:`pack_flips`; bits at and above
    ``n_boundaries`` are zero), then read :meth:`result`.

    Rows with no toggle are dropped, and the rest are unpacked and weighted
    ``_BLOCK_ROWS`` rows at a time into one product buffer, so no table of
    toggles or products as large as the value table is ever built.  The
    result is bit-identical to the dense ``(T * caps[:, None]).sum(axis=0)``
    over the unpacked toggle table ``T``, however the rows are blocked:
    NumPy sums axis 0 of a C-ordered table row by row, so each block adds
    the running total into its first product row and then sums its rows in
    the same order, and a dropped row only adds ``+0.0`` to a non-negative
    running sum.  A single boundary column is summed pairwise instead, so
    its flips (one byte per row) are kept and taken whole, zero rows
    included, when the result is read.

    Args:
        n_boundaries: number of pattern boundaries (columns of the flips).
        caps: per-row capacitances (fF); the switched capacitance is skipped
            (``None``) when omitted.
    """

    def __init__(self, n_boundaries: int, caps: Optional[np.ndarray] = None) -> None:
        self.n_boundaries = n_boundaries
        self.caps = caps
        self.toggles = np.zeros(n_boundaries, dtype=np.int64)
        self.switched = None if caps is None else np.zeros(n_boundaries, dtype=np.float64)
        self._products: Optional[np.ndarray] = None
        self._column: List[np.ndarray] = []

    def __call__(self, first_row: int, flips: np.ndarray) -> None:
        if self.n_boundaries == 1:
            self._column.append(flips)
        elif self.n_boundaries:
            self._add(first_row, flips, np.flatnonzero(flips.any(axis=1)), _BLOCK_ROWS)

    def _add(self, first_row: int, flips: np.ndarray, rows: np.ndarray, height: int) -> None:
        for lo in range(0, rows.size, height):
            picked = rows[lo : lo + height]
            block = np.unpackbits(flips[picked], axis=1, count=self.n_boundaries, bitorder="little")
            self.toggles += block.sum(axis=0, dtype=np.int64)
            if self.caps is None:
                continue
            if self._products is None:
                # One buffer serves every block, so a block's products never
                # coexist with the previous block's.
                self._products = np.empty((height, self.n_boundaries))
            # Widen the bytes in place, then weight them float by float: the
            # same products as a mixed uint8 x float64 multiply, made faster.
            weighted = self._products[: picked.size]
            np.copyto(weighted, block, casting="unsafe")
            np.multiply(weighted, self.caps[first_row + picked, None], out=weighted)
            weighted[0] += self.switched
            self.switched = weighted.sum(axis=0)

    def result(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(toggles, switched)``: int64 nets toggling at each boundary and
        the capacitance-weighted toggles, float64 or ``None``."""
        if self._column:
            flips = np.concatenate(self._column)
            self._column = []
            self._add(0, flips, np.arange(flips.shape[0]), max(flips.shape[0], 1))
        return self.toggles, self.switched


def switching_profile(
    flips: np.ndarray, n_boundaries: int, caps: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-boundary toggle counts and switched capacitance of packed flips.

    Args:
        flips: ``(n_nets, ceil(n_boundaries / 8))`` ``uint8`` packed boundary
            flips, one row per net (see :func:`pack_flips`); bits at and
            above ``n_boundaries`` are zero.
        n_boundaries: number of pattern boundaries (``n_patterns - 1``).
        caps: per-row capacitances (fF); the switched capacitance is skipped
            (``None``) when omitted.

    Returns:
        ``(toggles, switched)`` of :meth:`SwitchingFold.result`, folded over
        the whole table at once.
    """
    n_rows = flips.shape[0]
    if caps is not None and caps.shape[0] != n_rows:
        raise ValueError(f"{caps.shape[0]} capacitances for {n_rows} rows")
    fold = SwitchingFold(n_boundaries, caps)
    fold(0, flips)
    return fold.result()


def switching_profiles(
    simulator: object, matrices: Sequence[np.ndarray], caps: Optional[np.ndarray] = None
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """:func:`switching_profile` of several pattern matrices, simulated together.

    Sets of more than two patterns share one simulation pass: their patterns
    are laid side by side, the fold runs over every boundary of the joint
    set, and each set's columns are sliced out; the seam column between two
    sets is dropped.  Every column is summed over the same rows in the same
    order as the set's own table would be (a row the joint pass keeps but
    the set alone would drop adds ``+0.0``), so each profile is bit-identical
    to grading its set alone.  A two-pattern set keeps a pass of its own,
    since its single column is summed pairwise over every row (see
    :class:`SwitchingFold`); a set of at most one pattern has no boundary and
    is not simulated.

    Args:
        simulator: a packed (``fold_flips``) or naive (``net_value_matrix``)
            logic simulator of the circuit.
        matrices: fully specified pattern matrices over the test pins.
        caps: per-row capacitances (fF), or ``None`` for toggles only.
    """
    profiles = [(np.zeros(0, dtype=np.int64), None if caps is None else np.zeros(0)) for _ in matrices]
    shared = [k for k, matrix in enumerate(matrices) if len(matrix) > 2]
    passes = [shared] if shared else []
    passes += [[k] for k, matrix in enumerate(matrices) if len(matrix) == 2]
    for group in passes:
        widths = [len(matrices[k]) for k in group]
        fold = SwitchingFold(sum(widths) - 1, caps)
        if hasattr(simulator, "fold_flips"):
            simulator.fold_flips([matrices[k] for k in group], fold)
        else:  # the naive backend: one value table over the sets side by side
            stacked = np.concatenate([matrices[k] for k in group])
            fold(0, pack_flips(simulator.net_value_matrix(stacked)[1]))
        toggles, switched = fold.result()
        start = 0
        for k, width in zip(group, widths):
            columns = slice(start, start + width - 1)
            profiles[k] = (
                toggles[columns].copy(),
                None if switched is None else switched[columns].copy(),
            )
            start += width
    return profiles


def weighted_switching_activity(
    circuit: Circuit,
    patterns: TestSet,
    capacitance: Optional[CapacitanceModel] = None,
    simulator: Optional[object] = None,
) -> SwitchingActivity:
    """Compute per-boundary (capture-cycle) switching activity.

    Args:
        circuit: circuit under test.
        patterns: ordered, fully specified pattern set over the test pins.
        capacitance: per-net capacitances; extracted with defaults if omitted.
        simulator: optionally reuse a prebuilt logic simulator — any engine
            backend simulator or the naive ``LogicSimulator`` (the experiment
            harness evaluates many fills on the same circuit).  When omitted,
            one is resolved through the backend registry.

    Memory: on the packed backend no value table and no flips table of
    every net is built — the flips stream from the lanes a node block at a
    time, the lanes are dropped after their last reader, and the toggles and
    switched capacitance take ``O(_BLOCK_ROWS x n_patterns)`` (see
    :class:`SwitchingFold`).  The naive backend's bool value table is packed
    first (:func:`pack_flips`).

    Raises:
        ValueError: if the pattern set still contains X bits.
    """
    return switching_activities(circuit, [patterns], capacitance, simulator)[0]


def switching_activities(
    circuit: Circuit,
    sets: Sequence[TestSet],
    capacitance: Union[CapacitanceModel, np.ndarray, None],
    simulator: Optional[object] = None,
) -> List[SwitchingActivity]:
    """:func:`weighted_switching_activity` of several pattern sets, simulated together.

    The sets share simulation passes (see :func:`switching_profiles`); each
    activity is bit-identical to that of its set alone.  ``capacitance`` is
    a model (``None``: extracted with defaults), resolved in value-table row
    order (test pins, then :meth:`Circuit.topological_order`), or an array
    already in that order, which :class:`~repro.power.estimator.PowerEstimator`
    resolves once.

    Raises:
        ValueError: if a pattern set still contains X bits.
    """
    if not all(patterns.is_fully_specified() for patterns in sets):
        raise ValueError("switching activity requires fully specified patterns")
    short = [patterns for patterns in sets if len(patterns) <= 1]
    if short:
        # No boundaries: no simulation, but validate the circuit and the
        # pattern shape the same way a full run would.
        circuit.validate()
        for patterns in short:
            check_pattern_matrix(patterns.matrix, circuit.n_test_pins)
    caps = None
    if len(short) < len(sets):
        if simulator is None:
            simulator = get_backend().logic_simulator(circuit)
        if isinstance(capacitance, np.ndarray):
            caps = capacitance
        elif capacitance is None:
            caps = row_capacitances(circuit)
        else:
            caps = capacitance.as_array(circuit.combinational_inputs + circuit.topological_order())
    matrices = [patterns.matrix for patterns in sets]
    activities = []
    for matrix, (toggles, switched) in zip(matrices, switching_profiles(simulator, matrices, caps)):
        activities.append(
            SwitchingActivity(
                circuit_name=circuit.name,
                toggles_per_boundary=toggles,
                switched_capacitance_ff=np.zeros(0) if switched is None else switched,
                input_toggles_per_boundary=np.count_nonzero(
                    matrix[1:] != matrix[:-1], axis=1
                ).astype(np.int64),
            )
        )
    return activities
