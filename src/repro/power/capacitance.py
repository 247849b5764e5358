"""Synthetic interconnect-capacitance extraction.

The paper extracts interconnect capacitances from a placed-and-routed 45 nm
layout.  Offline, the reproduction models the two dominant contributions per
net with technology-flavoured constants:

* **gate-input load** — every fan-out pin adds one gate-input capacitance;
* **wire load** — wirelength grows roughly with fan-out (a net that feeds
  many pins must physically span them), with a deterministic per-net
  variation standing in for placement spread.

Absolute accuracy is not the goal; what Table VI needs is a per-net weight
that is positive, fan-out-correlated and fixed across the techniques being
compared, so the *ranking* of techniques is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class TechnologyParameters:
    """Technology constants used by the capacitance and power models.

    The defaults are representative of a generic 45 nm standard-cell library
    (the paper's node): femtofarad-scale pin and wire capacitances, 1.1 V
    supply and a 500 MHz at-speed capture clock.

    Attributes:
        gate_input_cap_ff: capacitance of one gate input pin, in fF.
        wire_cap_per_fanout_ff: incremental wire capacitance per fan-out, in fF.
        base_wire_cap_ff: minimum wire capacitance of any routed net, in fF.
        wire_variation: relative spread of the per-net wire-length lottery.
        supply_voltage: Vdd in volts.
        clock_frequency_hz: at-speed capture clock frequency.
    """

    gate_input_cap_ff: float = 1.8
    wire_cap_per_fanout_ff: float = 1.1
    base_wire_cap_ff: float = 0.9
    wire_variation: float = 0.35
    supply_voltage: float = 1.1
    clock_frequency_hz: float = 500e6

    def __post_init__(self) -> None:
        if min(self.gate_input_cap_ff, self.wire_cap_per_fanout_ff, self.base_wire_cap_ff) <= 0:
            raise ValueError("capacitance constants must be positive")
        if not 0.0 <= self.wire_variation < 1.0:
            raise ValueError("wire_variation must be in [0, 1)")
        if self.supply_voltage <= 0 or self.clock_frequency_hz <= 0:
            raise ValueError("supply voltage and clock frequency must be positive")


@dataclass
class CapacitanceModel:
    """Per-net capacitances of one circuit (in femtofarads)."""

    circuit_name: str
    technology: TechnologyParameters
    net_capacitance_ff: Dict[str, float]

    def capacitance_of(self, net: str) -> float:
        """Capacitance of one net in fF."""
        return self.net_capacitance_ff[net]

    def as_array(self, nets) -> np.ndarray:
        """Capacitances of ``nets`` as an array, in the given order.

        The values are put on the grid of :func:`_on_quantum_grid`, so a
        model built by hand sums as exactly as an extracted one (whose
        values are already on it).

        Raises:
            ValueError: if their total reaches :data:`MAX_TOTAL_CAPACITANCE_FF`.
        """
        return _on_quantum_grid(
            np.array([self.net_capacitance_ff[n] for n in nets], dtype=np.float64)
        )


#: Every capacitance is a whole multiple of this quantum (fF).
CAPACITANCE_QUANTUM_FF = 2.0 ** -24

#: A circuit's total capacitance must stay below this bound (fF).  Below it,
#: every sum of its capacitances is a whole number of quanta under ``2**53``,
#: which float64 holds exactly, so a switched-capacitance sum is exact in any
#: order.
MAX_TOTAL_CAPACITANCE_FF = 2.0 ** 53 * CAPACITANCE_QUANTUM_FF


def _on_quantum_grid(capacitances: np.ndarray) -> np.ndarray:
    """``capacitances`` (fF) rounded to multiples of :data:`CAPACITANCE_QUANTUM_FF`.

    Values already on the grid come back unchanged.

    Raises:
        ValueError: if the total reaches :data:`MAX_TOTAL_CAPACITANCE_FF`.
    """
    # One new array, rounded and rescaled in place: the caller's array stays
    # alive across the call, so each further temporary would add to the
    # extraction's peak memory.
    grid = capacitances / CAPACITANCE_QUANTUM_FF
    np.round(grid, out=grid)
    grid *= CAPACITANCE_QUANTUM_FF
    total = float(grid.sum())
    if total >= MAX_TOTAL_CAPACITANCE_FF:
        raise ValueError(
            f"total capacitance {total:.4g} fF reaches the exact-sum bound "
            f"{MAX_TOTAL_CAPACITANCE_FF:.4g} fF"
        )
    return grid


def _capacitances(
    readers: np.ndarray, technology: TechnologyParameters, seed: int
) -> np.ndarray:
    """Capacitance of each net from its reader count, in the order given.

    The per-net wire-length lottery is drawn in that order, so it must be
    :meth:`Circuit.nets` order for every caller to see the same weights.
    Each capacitance is rounded to a multiple of
    :data:`CAPACITANCE_QUANTUM_FF` (:func:`_on_quantum_grid`).

    Raises:
        ValueError: if the total reaches :data:`MAX_TOTAL_CAPACITANCE_FF`.
    """
    rng = np.random.default_rng(seed)
    readers = np.maximum(readers, 1)
    # Fan-out counts take few distinct values: raising each one with python's
    # ``**`` keeps the scalar libm ``pow`` rounding exactly, which NumPy's
    # vectorised ``power`` does not promise.
    distinct, slot = np.unique(readers, return_inverse=True)
    spread = np.array([int(count) ** 1.15 for count in distinct], dtype=np.float64)[slot]
    # One draw of ``len(readers)`` doubles is the same stream as one draw per net.
    wire_lottery = 1.0 + technology.wire_variation * (2.0 * rng.random(len(readers)) - 1.0)
    gate_load = technology.gate_input_cap_ff * readers
    wire_load = (
        technology.base_wire_cap_ff + technology.wire_cap_per_fanout_ff * spread
    ) * wire_lottery
    return _on_quantum_grid(gate_load + wire_load)


def extract_capacitances(
    circuit: Circuit,
    technology: TechnologyParameters = TechnologyParameters(),
    seed: int = 0,
) -> CapacitanceModel:
    """Produce a deterministic synthetic capacitance model for ``circuit``.

    Args:
        circuit: the circuit whose nets are to be "extracted".
        technology: technology constants.
        seed: seed of the per-net wire-length variation (deterministic, so the
            same circuit always gets the same extraction — comparisons between
            fills/orderings see identical weights).
    """
    nets = circuit.nets()
    fanout = circuit.fanout_counts()
    readers = np.array([fanout.get(net, 0) for net in nets], dtype=np.int64)
    capacitances = _capacitances(readers, technology, seed)
    return CapacitanceModel(
        circuit_name=circuit.name,
        technology=technology,
        net_capacitance_ff=dict(zip(nets, capacitances.tolist())),
    )


def row_capacitances(
    circuit: Circuit,
    technology: TechnologyParameters = TechnologyParameters(),
    seed: int = 0,
) -> np.ndarray:
    """The capacitances of :func:`extract_capacitances`, in value-table row order.

    Rows are the simulators' order: test pins, then
    :meth:`Circuit.topological_order`.  The result is bit-equal to
    ``extract_capacitances(circuit, technology, seed).as_array(rows)`` but is
    computed from the netlist's integer columns, without a name per net.
    """
    columns = circuit.columns()
    n_ids = len(columns.net_names)
    gate_net = np.asarray(columns.gate_net, dtype=np.int64)
    # Circuit.nets() order, which the lottery is drawn in.
    net_ids = np.concatenate([np.asarray(columns.inputs, dtype=np.int64), gate_net])
    readers = np.bincount(circuit.fanin_arrays().nets, minlength=n_ids)
    readers[columns.outputs] += 1  # primary outputs are distinct
    readers = readers[net_ids]
    by_id = np.zeros(n_ids, dtype=np.float64)
    by_id[net_ids] = _capacitances(readers, technology, seed)
    order = np.asarray(columns.order, dtype=np.int64)
    rows = np.concatenate([np.asarray(columns.test_pins, dtype=np.int64), gate_net[order]])
    return by_id[rows]
