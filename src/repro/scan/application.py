"""Scan test application: shift/launch/capture scheduling for LOS and LOC.

The paper's setting is Launch-Off-Shift (LOS) at-speed testing with a DFT
scheme that *preserves the combinational state* between the capture of one
pattern and the launch of the next (first-level hold, ref. [18] of the
paper).  Under that assumption the combinational inputs step directly from
filled pattern ``i`` to filled pattern ``i + 1``, so the capture-cycle
switching activity of the circuit is driven exactly by the adjacent-pattern
Hamming distance that DP-fill minimises.

:class:`ScanTestApplication` turns an ordered, filled pattern set into a
per-cycle activity trace:

* capture cycles — one per pattern boundary, with the input-toggle count and
  (optionally) the circuit-level switching activity between the two patterns;
* shift cycles — per-pattern scan-in transition counts, which is the shift
  power that MT-fill style fills target (reported for completeness; the
  paper's objective is the capture peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.cubes.metrics import toggle_profile
from repro.engine.packed import PackedLogicSimulator
from repro.power.switching import switching_profiles
from repro.scan.chain import ScanConfiguration, build_scan_chains


@dataclass(frozen=True)
class CaptureCycle:
    """Activity of one launch/capture event (pattern boundary).

    Attributes:
        boundary: index ``j`` of the boundary between pattern ``j`` and ``j+1``.
        input_toggles: number of test pins changing across the boundary.
        circuit_toggles: number of internal nets changing (only populated when
            the application was run with circuit simulation enabled).
    """

    boundary: int
    input_toggles: int
    circuit_toggles: Optional[int] = None


@dataclass
class TestApplicationResult:
    """Full per-cycle activity trace of applying a pattern set.

    Attributes:
        scheme: ``"LOS"`` or ``"LOC"``.
        capture_cycles: one entry per pattern boundary.
        shift_transitions: per-pattern scan-in transition counts.
        shift_cycles_per_pattern: scan length (shift cycles needed per pattern).
    """

    scheme: str
    capture_cycles: List[CaptureCycle] = field(default_factory=list)
    shift_transitions: List[int] = field(default_factory=list)
    shift_cycles_per_pattern: int = 0

    @property
    def peak_capture_input_toggles(self) -> int:
        """Maximum input-toggle count over all capture cycles."""
        return max((c.input_toggles for c in self.capture_cycles), default=0)

    @property
    def peak_capture_circuit_toggles(self) -> int:
        """Maximum circuit-toggle count over all capture cycles (0 if not simulated)."""
        return max((c.circuit_toggles or 0 for c in self.capture_cycles), default=0)

    @property
    def total_shift_transitions(self) -> int:
        """Total scan-in transitions over the whole test (shift-power proxy)."""
        return int(sum(self.shift_transitions))

    @property
    def test_cycles(self) -> int:
        """Total tester cycles: shifts for every pattern plus one capture each."""
        return len(self.shift_transitions) * (self.shift_cycles_per_pattern + 1)


class ScanTestApplication:
    """Applies an ordered, filled pattern set through the scan infrastructure.

    Args:
        circuit: circuit under test.
        scan_config: scan-chain configuration; a single balanced chain is
            built automatically when omitted.
        scheme: ``"LOS"`` (the paper's setting) or ``"LOC"``.  Both schemes
            produce the same *capture* boundary activity under the
            state-preservation assumption; LOC additionally marks that the
            launch comes from functional operation, which matters only for
            delay-fault coverage accounting, not for power.
        state_preserving_dft: model the first-level-hold DFT of the paper.
            When disabled, the combinational inputs are assumed to be
            disturbed by the shift process between captures, and capture
            activity is computed against the shifted-in state instead, which
            is the pessimistic conventional scheme.
    """

    def __init__(
        self,
        circuit: Circuit,
        scan_config: Optional[ScanConfiguration] = None,
        scheme: str = "LOS",
        state_preserving_dft: bool = True,
    ) -> None:
        if scheme not in ("LOS", "LOC"):
            raise ValueError("scheme must be 'LOS' or 'LOC'")
        self.circuit = circuit
        self.scheme = scheme
        self.state_preserving_dft = state_preserving_dft
        self.scan_config = scan_config or build_scan_chains(circuit)
        self._simulator: Optional[PackedLogicSimulator] = None

    def _circuit_toggles(self, patterns: TestSet) -> np.ndarray:
        if self._simulator is None:
            self._simulator = PackedLogicSimulator(self.circuit)
        return switching_profiles(self._simulator, [patterns.matrix])[0][0]

    def _shift_transitions(self, patterns: TestSet) -> List[int]:
        ff_names = [ff.output for ff in self.circuit.flip_flops]
        if not ff_names:
            return [0] * len(patterns)
        pin_order = self.circuit.combinational_inputs
        ff_positions = {name: pin_order.index(name) for name in ff_names}
        totals: List[int] = []
        for cube in patterns:
            cell_values = {name: cube[ff_positions[name]] for name in ff_names}
            totals.append(
                sum(chain.shift_transitions(cell_values) for chain in self.scan_config.chains)
            )
        return totals

    def apply(self, patterns: TestSet, simulate_circuit: bool = False) -> TestApplicationResult:
        """Apply a filled pattern set and return its activity trace.

        Args:
            patterns: ordered, fully specified patterns over the circuit's
                test pins.
            simulate_circuit: also simulate the netlist to obtain per-boundary
                circuit-toggle counts (needed for the power model; off by
                default because it is the expensive part).

        Raises:
            ValueError: if the patterns are not fully specified or have the
                wrong width.
        """
        if not patterns.is_fully_specified():
            raise ValueError("scan application requires fully specified (filled) patterns")
        if patterns.n_pins != self.circuit.n_test_pins:
            raise ValueError(
                f"patterns have {patterns.n_pins} pins, circuit expects {self.circuit.n_test_pins}"
            )

        if self.state_preserving_dft:
            input_profile = toggle_profile(patterns)
        else:
            # Without state preservation the state part of each boundary is
            # measured against the shifted-in successor state directly after
            # shifting, i.e. the same Hamming distance — plus every shift
            # cycle disturbs the logic.  The conventional model charges the
            # boundary with the full pin count as a pessimistic bound.
            base = toggle_profile(patterns)
            input_profile = np.minimum(base + self.circuit.n_flip_flops, patterns.n_pins)

        circuit_profile: Optional[np.ndarray] = None
        if simulate_circuit:
            circuit_profile = self._circuit_toggles(patterns)

        capture_cycles = [
            CaptureCycle(
                boundary=j,
                input_toggles=int(input_profile[j]),
                circuit_toggles=int(circuit_profile[j]) if circuit_profile is not None else None,
            )
            for j in range(len(input_profile))
        ]
        return TestApplicationResult(
            scheme=self.scheme,
            capture_cycles=capture_cycles,
            shift_transitions=self._shift_transitions(patterns),
            shift_cycles_per_pattern=self.scan_config.shift_cycles_per_pattern(),
        )
