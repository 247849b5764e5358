"""Constant, random and minimum-transition fills (the cheap baselines).

These are the classic fills every low-power-test paper compares against:
0-fill and 1-fill bias the circuit toward a constant state, R-fill is the
"do nothing clever" reference, and MT-fill (minimum-transition / adjacent
fill within a pattern) minimises *shift* transitions, which is the industry
default when capture power is not the concern.
"""

from __future__ import annotations

import numpy as np

from repro.core.intervals import Stretches, fill_runs
from repro.cubes.bits import BIT_DTYPE, ONE, X, ZERO
from repro.cubes.cube import TestSet
from repro.filling.base import Filler, register_filler


class ZeroFill(Filler):
    """Replace every don't-care with logic 0."""

    name = "0-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        data[data == X] = ZERO
        return patterns.filled(data)


class OneFill(Filler):
    """Replace every don't-care with logic 1."""

    name = "1-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        data[data == X] = ONE
        return patterns.filled(data)


class RandomFill(Filler):
    """Replace every don't-care with an independent uniform random bit.

    Args:
        seed: RNG seed; the fill is deterministic for a given seed so that
            experiment tables are reproducible run to run.
    """

    name = "R-fill"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def fill(self, patterns: TestSet) -> TestSet:
        rng = np.random.default_rng(self.seed)
        data = patterns.matrix.copy()
        mask = data == X
        data[mask] = rng.integers(0, 2, size=int(mask.sum())).astype(BIT_DTYPE)
        return patterns.filled(data)


class MinimumTransitionFill(Filler):
    """Minimum-transition (intra-pattern adjacent) fill.

    Each X takes the value of the nearest *earlier* specified bit in the same
    pattern; a leading X run takes the first specified value.  A pattern with
    no specified bit at all becomes all zeros.  This minimises the number of
    transitions along the scan chain while shifting the pattern in, which is
    why commercial flows use it as the low-(shift-)power default.
    """

    name = "MT-fill"

    def fill(self, patterns: TestSet) -> TestSet:
        data = patterns.matrix.copy()
        stretches = Stretches.of(data)
        stretches.fill_ends(data)
        # Every inner X run takes the specified value on its left.
        fill_runs(data, stretches.rows, stretches.left + 1, stretches.right, stretches.left_values)
        return patterns.filled(data)


register_filler("0-fill", ZeroFill, aliases=["zero-fill", "zero"])
register_filler("1-fill", OneFill, aliases=["one-fill", "one"])
register_filler("R-fill", RandomFill, aliases=["random-fill", "random"])
register_filler("MT-fill", MinimumTransitionFill, aliases=["mt", "minimum-transition"])
