"""Capacitance-weighted switching activity.

Given an ordered, filled pattern set, the logic simulator tells us which nets
toggle at each pattern boundary; weighting each toggle by the net's extracted
capacitance gives the switched capacitance per capture cycle, the quantity
dynamic power is proportional to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.simulator import check_pattern_matrix
from repro.cubes.cube import TestSet
from repro.engine.backend import get_backend
from repro.power.capacitance import CapacitanceModel, extract_capacitances


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


#: Value-table rows one block of :func:`switching_profile` holds; it caps the
#: kernel's memory at ``O(block x patterns)`` instead of a float table as
#: large as the whole ``n_nets x n_patterns`` value table.
_BLOCK_ROWS = 512


def switching_profile(
    values: np.ndarray, caps: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-boundary toggle counts and switched capacitance of a value table.

    Args:
        values: ``(n_nets, n_patterns)`` bool net values, one row per net.
        caps: per-row capacitances (fF); the switched capacitance is skipped
            (``None``) when omitted.

    Returns:
        ``(toggles, switched)``: int64 nets toggling at each boundary and the
        capacitance-weighted toggles, float64 or ``None``.

    The value table is walked in blocks of ``_BLOCK_ROWS`` rows, so no table
    of toggles or products as large as ``values`` is ever built.  The result
    is bit-identical to the dense ``(T * caps[:, None]).sum(axis=0)``: NumPy
    sums axis 0 of a C-ordered table row by row, so each block adds the
    running total into its first product row and then sums its rows in the
    same order.  A single boundary column is summed pairwise instead, so a
    two-pattern table is taken in one block (it is one float per net).
    """
    n_rows, n_patterns = values.shape
    n_boundaries = max(n_patterns - 1, 0)
    toggles = np.zeros(n_boundaries, dtype=np.int64)
    switched = None if caps is None else np.zeros(n_boundaries, dtype=np.float64)
    height = _BLOCK_ROWS if n_boundaries > 1 else max(n_rows, 1)
    for lo in range(0, n_rows, height):
        block = values[lo : lo + height]
        flips = block[:, 1:] != block[:, :-1]
        toggles += np.count_nonzero(flips, axis=0)
        if caps is not None:
            weighted = flips * caps[lo : lo + height, None]
            weighted[0] += switched
            switched = weighted.sum(axis=0)
    return toggles, switched


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
            one is resolved through the backend registry.  Simulators
            exposing ``net_value_matrix`` (both built-in backends do) skip
            the per-net dictionary round trip entirely.

    Memory: beyond the simulator's ``(n_nets, n_patterns)`` bool value table,
    the toggles and switched capacitance take ``O(_BLOCK_ROWS x n_patterns)``
    (see :func:`switching_profile`).

    Raises:
        ValueError: if the pattern set still contains X bits.
    """

    def caps_of(nets: List[str]) -> np.ndarray:
        return (capacitance or extract_capacitances(circuit)).as_array(nets)

    return switching_activity(circuit, patterns, caps_of, simulator)


def switching_activity(
    circuit: Circuit,
    patterns: TestSet,
    caps_of: Callable[[List[str]], np.ndarray],
    simulator: Optional[object] = None,
) -> SwitchingActivity:
    """:func:`weighted_switching_activity` with the capacitances as a callable.

    ``caps_of(nets)`` returns the capacitance array of ``nets`` in the given
    (simulator row) order; :class:`~repro.power.estimator.PowerEstimator`
    passes one that resolves the array once and reuses it.
    """
    if not patterns.is_fully_specified():
        raise ValueError("switching activity requires fully specified patterns")
    if len(patterns) <= 1:
        # No boundaries: skip the simulation entirely, but validate the
        # circuit and the pattern shape the same way a full run would.
        circuit.validate()
        check_pattern_matrix(patterns.matrix, circuit.n_test_pins)
        empty = np.zeros(0)
        return SwitchingActivity(circuit.name, empty.astype(np.int64), empty, empty.astype(np.int64))
    if simulator is None:
        simulator = get_backend().logic_simulator(circuit)

    matrix_getter = getattr(simulator, "net_value_matrix", None)
    if matrix_getter is not None:
        nets, value_matrix = matrix_getter(patterns.matrix)
    else:  # third-party simulator: fall back to the net dictionary surface
        values = simulator.simulate(patterns.matrix)
        nets = list(values.keys())
        value_matrix = np.vstack([values[net] for net in nets])

    toggles_per_boundary, switched_cap = switching_profile(value_matrix, caps_of(nets))

    pin_matrix = patterns.matrix
    input_toggles = np.count_nonzero(pin_matrix[1:] != pin_matrix[:-1], axis=1).astype(np.int64)

    return SwitchingActivity(
        circuit_name=circuit.name,
        toggles_per_boundary=toggles_per_boundary,
        switched_capacitance_ff=switched_cap,
        input_toggles_per_boundary=input_toggles,
    )
