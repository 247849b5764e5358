"""Capacitance-weighted switching activity.

Given an ordered, filled pattern set, the logic simulator tells us which nets
toggle at each pattern boundary; weighting each toggle by the net's extracted
capacitance gives the switched capacitance per capture cycle, the quantity
dynamic power is proportional to.

The toggles arrive *packed*: one ``uint8`` row per net, bit ``j`` (little
endian) set when the net flips between pattern ``j`` and ``j + 1``.  One
fold, :class:`SwitchingFold`, grades them block by block.  The capacitances
are dyadic (see :mod:`repro.power.capacitance`), so its sums are exact in
any order.  The engine streams the flips straight from its big-int lanes, a
node block at a time
(:meth:`~repro.engine.packed.PackedLogicSimulator.fold_flips`), and grades
several pattern sets in one simulation pass (:func:`switching_profiles`);
no value table is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.engine.packed import PackedLogicSimulator, check_pattern_matrix
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


class SwitchingFold:
    """Per-boundary toggle counts and switched capacitance of packed flips.

    Call the fold with ``(first_row, flips)`` for row blocks of packed flips
    (the layout of :func:`~repro.engine.packed.boundary_flips`; bits at and
    above ``n_boundaries`` are zero), then read :attr:`toggles` (int64 nets
    toggling at each boundary) and :attr:`switched` (their capacitance-weighted
    sum, float64).

    Rows with no toggle are dropped, and the rest are unpacked and weighted
    ``_BLOCK_ROWS`` rows at a time, so no table of toggles or products as
    large as the value table is ever built.  The capacitances are multiples
    of :data:`~repro.power.capacitance.CAPACITANCE_QUANTUM_FF` whose total
    stays below :data:`~repro.power.capacitance.MAX_TOTAL_CAPACITANCE_FF`,
    so every partial sum is exact: the result equals the dense ``caps @ T``
    over the unpacked toggle table ``T`` whatever the blocks or row order.

    Args:
        n_boundaries: number of pattern boundaries (columns of the flips).
        caps: per-row capacitances (fF).
    """

    def __init__(self, n_boundaries: int, caps: np.ndarray) -> None:
        self.n_boundaries = n_boundaries
        self.caps = caps
        self.toggles = np.zeros(n_boundaries, dtype=np.int64)
        self.switched = np.zeros(n_boundaries, dtype=np.float64)

    def __call__(self, first_row: int, flips: np.ndarray) -> None:
        rows = np.flatnonzero(flips.any(axis=1))
        for lo in range(0, rows.size, _BLOCK_ROWS):
            picked = rows[lo : lo + _BLOCK_ROWS]
            block = np.unpackbits(flips[picked], axis=1, count=self.n_boundaries, bitorder="little")
            self.toggles += block.sum(axis=0, dtype=np.int64)
            self.switched += self.caps[first_row + picked] @ block


def switching_profiles(
    simulator: object, matrices: Sequence[np.ndarray], caps: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-boundary toggle counts and switched capacitance of several pattern
    matrices, simulated together.

    Every set of at least two patterns is laid side by side in one
    simulation pass, the fold runs over every boundary of the joint set and
    each set's columns are sliced out; the seam column between two sets
    belongs to neither.  The fold's sums are exact, so each profile equals
    that of its set graded alone.  A set of at most one pattern has no
    boundary and is not simulated.

    Args:
        simulator: a logic simulator of the circuit with ``fold_flips``
            (:class:`~repro.engine.packed.PackedLogicSimulator`).
        matrices: fully specified pattern matrices over the test pins.
        caps: per-row capacitances (fF).

    Returns:
        One ``(toggles, switched)`` per matrix: the :attr:`SwitchingFold.toggles`
        and :attr:`SwitchingFold.switched` of its boundaries.
    """
    profiles = [(np.zeros(0, dtype=np.int64), np.zeros(0)) for _ in matrices]
    group = [k for k, matrix in enumerate(matrices) if len(matrix) >= 2]
    if not group:
        return profiles
    widths = [len(matrices[k]) for k in group]
    fold = SwitchingFold(sum(widths) - 1, caps)
    simulator.fold_flips([matrices[k] for k in group], fold)
    start = 0
    for k, width in zip(group, widths):
        columns = slice(start, start + width - 1)
        profiles[k] = (fold.toggles[columns].copy(), fold.switched[columns].copy())
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
        simulator: optionally reuse a prebuilt
            :class:`~repro.engine.packed.PackedLogicSimulator` (the
            experiment harness evaluates many fills on the same circuit).

    Memory: no value table and no flips table of every net is built — the
    flips stream from the lanes a node block at a time, the lanes are
    dropped after their last reader, and the toggles and switched
    capacitance take ``O(_BLOCK_ROWS x n_patterns)`` (see
    :class:`SwitchingFold`).

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

    The sets share one simulation pass (see :func:`switching_profiles`), and
    each activity equals that of its set alone exactly.  ``capacitance`` is
    a model (``None``: extracted with defaults), resolved in value-table row
    order (test pins, then :meth:`Circuit.topological_order`) and put on the
    capacitance grid by :meth:`CapacitanceModel.as_array`, or an array
    already in that order and on that grid, which
    :class:`~repro.power.estimator.PowerEstimator` resolves once.

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
    if simulator is None and len(short) < len(sets):
        simulator = PackedLogicSimulator(circuit)
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
                switched_capacitance_ff=switched,
                input_toggles_per_boundary=np.count_nonzero(
                    matrix[1:] != matrix[:-1], axis=1
                ).astype(np.int64),
            )
        )
    return activities
