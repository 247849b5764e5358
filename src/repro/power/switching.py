"""Capacitance-weighted switching activity.

Given an ordered, filled pattern set, the logic simulator tells us which nets
toggle at each pattern boundary; weighting each toggle by the net's extracted
capacitance gives the switched capacitance per capture cycle, the quantity
dynamic power is proportional to.

The toggles arrive *packed*: one ``uint8`` row per net, bit ``j`` (little
endian) set when the net flips between pattern ``j`` and ``j + 1``.  The
packed backend forms them straight from its big-int lanes
(:meth:`~repro.engine.packed.PackedLogicSimulator.boundary_flips`); any other
simulator's value table goes through :func:`pack_flips`.  One kernel,
:func:`switching_profile`, grades both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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


#: Rows one block of :func:`switching_profile` unpacks; it caps the kernel's
#: memory at ``O(block x patterns)`` instead of a float table as large as the
#: whole ``n_nets x n_patterns`` value table.
_BLOCK_ROWS = 512


def pack_flips(values: np.ndarray) -> np.ndarray:
    """Packed boundary flips of a ``(n_nets, n_patterns)`` bool value table.

    The layout of :meth:`~repro.engine.packed.PackedLogicSimulator.boundary_flips`:
    ``(n_nets, ceil((n_patterns - 1) / 8))`` ``uint8``, little-endian bits.
    """
    return np.packbits(values[:, 1:] != values[:, :-1], axis=1, bitorder="little")


def simulated_flips(simulator: object, patterns: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """Net names and packed boundary flips of ``patterns`` on ``simulator``.

    Simulators with ``boundary_flips`` (the packed backend) supply the
    packed flips themselves; otherwise the value table of
    ``net_value_matrix`` (the naive backend) — or, for third-party
    simulators, of the ``simulate`` net dictionary — goes through
    :func:`pack_flips`.  Rows follow the simulator's net order.
    """
    flips_getter = getattr(simulator, "boundary_flips", None)
    if flips_getter is not None:
        return flips_getter(patterns)
    matrix_getter = getattr(simulator, "net_value_matrix", None)
    if matrix_getter is not None:
        nets, values = matrix_getter(patterns)
    else:  # third-party simulator: fall back to the net dictionary surface
        by_net = simulator.simulate(patterns)
        nets = list(by_net.keys())
        values = np.vstack([by_net[net] for net in nets])
    return nets, pack_flips(values)


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
        ``(toggles, switched)``: int64 nets toggling at each boundary and the
        capacitance-weighted toggles, float64 or ``None``.

    Rows with no toggle are dropped, and the rest are unpacked in blocks of
    ``_BLOCK_ROWS`` rows, so no table of toggles or products as large as the
    value table is ever built: memory is the packed flips (an eighth of the
    bool value table) plus ``O(block x n_boundaries)``.  The result is
    bit-identical to the dense ``(T * caps[:, None]).sum(axis=0)`` over the
    unpacked toggle table ``T``: NumPy sums axis 0 of a C-ordered table row by
    row, so each block adds the running total into its first product row and
    then sums its rows in the same order, and a dropped row only adds
    ``+0.0`` to a non-negative running sum.  A single boundary column is
    summed pairwise instead, so a two-pattern table is taken whole in one
    block, zero rows included (it is one float per net).
    """
    n_rows = flips.shape[0]
    if caps is not None and caps.shape[0] != n_rows:
        raise ValueError(f"{caps.shape[0]} capacitances for {n_rows} rows")
    toggles = np.zeros(n_boundaries, dtype=np.int64)
    switched = None if caps is None else np.zeros(n_boundaries, dtype=np.float64)
    if n_boundaries > 1:
        rows = np.flatnonzero(flips.any(axis=1))
        height = _BLOCK_ROWS
    else:
        rows = np.arange(n_rows)
        height = max(n_rows, 1)
    # One product buffer serves every block, so a block's products never
    # coexist with the previous block's.
    products = None if caps is None else np.empty((min(height, rows.size), n_boundaries))
    for lo in range(0, rows.size, height):
        picked = rows[lo : lo + height]
        block = np.unpackbits(flips[picked], axis=1, count=n_boundaries, bitorder="little")
        toggles += block.sum(axis=0, dtype=np.int64)
        if products is not None:
            weighted = np.multiply(block, caps[picked, None], out=products[: picked.size])
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
            exposing ``boundary_flips`` (packed) or ``net_value_matrix``
            (naive) skip the per-net dictionary round trip entirely.

    Memory: on the packed backend no value table is built — the packed
    flips take an eighth of the ``(n_nets, n_patterns)`` bool table, and the
    toggles and switched capacitance ``O(_BLOCK_ROWS x n_patterns)`` (see
    :func:`switching_profile`).  Other simulators' bool value tables are
    packed first (:func:`pack_flips`).

    Raises:
        ValueError: if the pattern set still contains X bits.
    """
    return switching_activity(circuit, patterns, capacitance, simulator)


def switching_activity(
    circuit: Circuit,
    patterns: TestSet,
    capacitance: Union[CapacitanceModel, np.ndarray, None],
    simulator: Optional[object] = None,
) -> SwitchingActivity:
    """:func:`weighted_switching_activity` with resolved capacitances allowed.

    ``capacitance`` is either a model (``None``: extracted with defaults),
    resolved against the net names the simulator reports, or an array already
    in the simulator's row order —
    :class:`~repro.power.estimator.PowerEstimator` resolves that array once.
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

    nets, flips = simulated_flips(simulator, patterns.matrix)
    if not isinstance(capacitance, np.ndarray):
        capacitance = (capacitance or extract_capacitances(circuit)).as_array(nets)
    toggles_per_boundary, switched_cap = switching_profile(flips, len(patterns) - 1, capacitance)

    pin_matrix = patterns.matrix
    input_toggles = np.count_nonzero(pin_matrix[1:] != pin_matrix[:-1], axis=1).astype(np.int64)

    return SwitchingActivity(
        circuit_name=circuit.name,
        toggles_per_boundary=toggles_per_boundary,
        switched_capacitance_ff=switched_cap,
        input_toggles_per_boundary=input_toggles,
    )
