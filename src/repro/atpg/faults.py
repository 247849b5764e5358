"""Single stuck-at fault model.

Faults are modelled on *nets* (stems): a net is permanently tied to 0 or 1
regardless of what its driver computes.  The fault universe of a circuit is
every net of the full-scan combinational view (primary inputs, flip-flop
outputs and gate outputs) times the two stuck values, which is the standard
stem fault list used when branch faults are folded into their stems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.circuit.netlist import Circuit
from repro.cubes.bits import ONE, ZERO


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """A single stuck-at fault.

    Attributes:
        net: the faulty net (identified by its driver name).
        stuck_value: 0 for stuck-at-0, 1 for stuck-at-1.
    """

    net: str
    stuck_value: int

    def __post_init__(self) -> None:
        if self.stuck_value not in (ZERO, ONE):
            raise ValueError("stuck_value must be 0 or 1")

    @property
    def name(self) -> str:
        """Conventional fault name, e.g. ``"G17/sa0"``."""
        return f"{self.net}/sa{self.stuck_value}"

    @property
    def activation_value(self) -> int:
        """The good-machine value required at the fault site to excite the fault."""
        return ONE - self.stuck_value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def full_fault_list(circuit: Circuit) -> List[StuckAtFault]:
    """Enumerate the uncollapsed stem fault universe of a circuit.

    Faults on flip-flop *outputs* are included (they are pseudo-primary
    inputs of the combinational view); faults on the DFF gates themselves are
    not modelled separately — they are equivalent to faults on their output
    nets in the full-scan methodology.
    """
    faults: List[StuckAtFault] = []
    for net in circuit.nets():
        faults.append(StuckAtFault(net=net, stuck_value=ZERO))
        faults.append(StuckAtFault(net=net, stuck_value=ONE))
    return faults
