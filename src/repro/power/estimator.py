"""Peak and average capture-power estimation (the paper's Table VI metric).

Dynamic power dissipated in one capture cycle is

``P = 0.5 * Vdd^2 * f_clk * C_switched``

where ``C_switched`` is the capacitance-weighted toggle count of that cycle.
The estimator evaluates this for every pattern boundary of a filled test set
and reports the peak (the paper's metric), the average and the underlying
activity, so the experiment harness can reproduce Table VI and the
input-vs-circuit-toggle correlation argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.engine.packed import PackedLogicSimulator
from repro.power.capacitance import (
    CapacitanceModel,
    TechnologyParameters,
    extract_capacitances,
    row_capacitances,
)
from repro.power.switching import SwitchingActivity, switching_activities


@dataclass
class PowerReport:
    """Capture-power figures for one filled pattern set on one circuit.

    Attributes:
        circuit_name: circuit under test.
        peak_power_uw: maximum per-capture-cycle dynamic power, in microwatts.
        average_power_uw: mean per-capture-cycle dynamic power, in microwatts.
        peak_boundary: index of the boundary where the peak occurs (-1 when
            there are no boundaries).
        activity: the underlying switching activity.
    """

    circuit_name: str
    peak_power_uw: float
    average_power_uw: float
    peak_boundary: int
    activity: SwitchingActivity

    @property
    def peak_input_toggles(self) -> int:
        """Peak test-pin toggles of the same pattern set (for correlation tables)."""
        profile = self.activity.input_toggles_per_boundary
        return int(profile.max()) if profile.size else 0


class PowerEstimator:
    """Reusable power estimator for one circuit.

    Building the estimator extracts capacitances and compiles the logic
    simulator once; :meth:`estimate` can then be called for every
    fill/ordering combination cheaply, and :meth:`estimate_many` grades
    several fills in one simulation pass, which is what the Table VI sweep
    does.  The capacitance array is built once, here, straight in the
    value-table row order every simulator follows (test pins, then
    :meth:`Circuit.topological_order`; see
    :func:`~repro.power.capacitance.row_capacitances`).  The name-keyed
    :attr:`capacitance` model is extracted only when read.

    Memory: the boundary flips stream from the lanes a node block at a
    time and each lane is dropped after its last reader, so a grading holds
    the lanes still to be read, one block's packed flips and
    ``O(block x n_patterns)`` for the unpacked toggles and switched
    capacitance (see :class:`~repro.power.switching.SwitchingFold`): no
    value table, no flips table of every net and never an
    ``n_nets x n_patterns`` float table.  :meth:`estimate_many` lays its
    sets side by side, so ``n_patterns`` is then their total.

    Args:
        circuit: circuit under test.
        technology: technology constants (45 nm-flavoured defaults).
        seed: seed of the synthetic capacitance extraction.
    """

    def __init__(
        self,
        circuit: Circuit,
        technology: TechnologyParameters = TechnologyParameters(),
        seed: int = 0,
    ) -> None:
        self.circuit = circuit
        self.technology = technology
        self._seed = seed
        self._simulator = PackedLogicSimulator(circuit)
        self._caps = row_capacitances(circuit, technology, seed=seed)

    @cached_property
    def capacitance(self) -> CapacitanceModel:
        """Per-net capacitances by net name (the weights :meth:`estimate` uses)."""
        return extract_capacitances(self.circuit, self.technology, seed=self._seed)

    def estimate(self, patterns: TestSet) -> PowerReport:
        """Estimate capture power for an ordered, filled pattern set."""
        return self.estimate_many([patterns])[0]

    def estimate_many(self, sets: Sequence[TestSet]) -> List[PowerReport]:
        """Estimate capture power for several ordered, filled pattern sets.

        The sets are simulated in one pass (see
        :func:`~repro.power.switching.switching_profiles`); the power sums
        are exact, so each report equals that of :meth:`estimate` on its set
        alone.
        """
        activities = switching_activities(self.circuit, sets, self._caps, self._simulator)
        return [self._report(activity) for activity in activities]

    def _report(self, activity: SwitchingActivity) -> PowerReport:
        switched_farads = activity.switched_capacitance_ff * 1e-15
        power_watts = (
            0.5
            * self.technology.supply_voltage ** 2
            * self.technology.clock_frequency_hz
            * switched_farads
        )
        power_uw = power_watts * 1e6
        if power_uw.size:
            peak_index = int(np.argmax(power_uw))
            peak = float(power_uw[peak_index])
            average = float(power_uw.mean())
        else:
            peak_index, peak, average = -1, 0.0, 0.0
        return PowerReport(
            circuit_name=self.circuit.name,
            peak_power_uw=peak,
            average_power_uw=average,
            peak_boundary=peak_index,
            activity=activity,
        )
