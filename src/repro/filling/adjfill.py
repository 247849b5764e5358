"""Adjacent fill across patterns (the Adj-fill comparator of Table V, ref. [21]).

Adjacent fill is the natural greedy for *capture* power: every don't-care in
pattern ``i`` copies the (already filled) value of the same pin in pattern
``i - 1``, so a pin only toggles when a care bit forces it to.  It is locally
optimal per boundary but, unlike DP-fill, it cannot trade a toggle at one
boundary for slack at another, so its *peak* can be far from optimal.
"""

from __future__ import annotations

from repro.cubes.bits import X, ZERO
from repro.cubes.cube import TestSet
from repro.filling.base import Filler, hold_previous, register_filler


class AdjacentFill(Filler):
    """Fill each X with the value of the same pin in the previous pattern.

    Args:
        first_pattern_fill: value used for don't-cares of the very first
            pattern (there is no previous pattern to copy from).  The paper's
            comparator [21] targets LOS transition tests where the first
            vector's fill barely matters; 0 is the conventional choice.
    """

    name = "Adj-fill"

    def __init__(self, first_pattern_fill: int = ZERO) -> None:
        if first_pattern_fill not in (0, 1):
            raise ValueError("first_pattern_fill must be 0 or 1")
        self.first_pattern_fill = first_pattern_fill

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        if data.size == 0:
            return patterns.filled(data)
        first = data[0]
        first[first == X] = self.first_pattern_fill
        # Pattern 0 is now specified, so every X has a value above it.
        hold_previous(data)
        return patterns.filled(data)


register_filler("Adj-fill", AdjacentFill, aliases=["adjacent-fill", "adj"])
