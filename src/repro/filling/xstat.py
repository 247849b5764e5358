"""Reconstruction of the X-Stat fill (the paper's B-fill columns, ref. [22]).

X-Stat is the strongest pre-existing heuristic the paper compares against
(it is the ``B-fill`` column of Tables II–IV and the ``XStat`` column of
Tables V–VI).  The original paper is not open source; this reconstruction
follows the description given in §III and Fig. 1 of the DP-fill paper:

* **Phase 1** — adjacent-fill each don't-care stretch of the pin matrix so
  that ``0 X..X 1`` / ``1 X..X 0`` stretches shrink to a single remaining X
  (``0 X 1`` / ``1 X 0``), and ``0 X..X 0`` / ``1 X..X 1`` stretches are
  filled completely.  The position of the surviving X inside the stretch is a
  free parameter of the reconstruction (:attr:`XStatFill.squeeze`); the
  greedy nature of this phase is exactly what makes X-Stat sub-optimal in
  Fig. 1, and the ablation benchmark sweeps the choice.
* **Phase 2** — each surviving X is a binary choice between placing its
  toggle at the boundary on its left or on its right.  The choices are
  resolved greedily against the running per-boundary toggle profile, most
  constrained (highest surrounding load) first.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.intervals import Stretches, fill_runs
from repro.cubes.bits import X
from repro.cubes.cube import TestSet
from repro.filling.base import Filler, register_filler

_SQUEEZE_MODES = ("middle", "left", "right")

#: Phase 1's surviving X bits: ``(rows, x_cols, left_values, right_values)``.
Choices = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class XStatFill(Filler):
    """Two-phase statistical X-fill (reconstruction of X-Stat / B-fill).

    Args:
        squeeze: where phase 1 leaves the surviving X of a ``0X..X1`` stretch —
            ``"middle"`` (default), ``"left"`` (right after the left care
            bit) or ``"right"`` (right before the right care bit).
    """

    name = "B-fill"

    def __init__(self, squeeze: str = "middle") -> None:
        if squeeze not in _SQUEEZE_MODES:
            raise ValueError(f"squeeze must be one of {_SQUEEZE_MODES}")
        self.squeeze = squeeze

    # -- phase 1 -------------------------------------------------------------
    def _squeeze_position(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Column index of the X that survives phase 1 for gaps (left, right)."""
        if self.squeeze == "left":
            return left + 1
        if self.squeeze == "right":
            return right - 1
        return (left + right) // 2

    def _phase1(self, pin: np.ndarray) -> Choices:
        """Shrink every stretch; return the surviving binary choices.

        The choices are ``(rows, x_cols, left_values, right_values)`` arrays,
        one entry per surviving X whose neighbours are already specified, in
        row-major, left-to-right order.
        """
        stretches = Stretches.of(pin)
        stretches.fill_ends(pin)
        rows, left, right = stretches.rows, stretches.left, stretches.right
        left_values, right_values = stretches.left_values, stretches.right_values
        held = stretches.held
        fill_runs(pin, rows[held], left[held] + 1, right[held], left_values[held])
        free = stretches.free
        rows, left, right = rows[free], left[free], right[free]
        left_values, right_values = left_values[free], right_values[free]
        keep = self._squeeze_position(left, right)
        fill_runs(pin, rows, left + 1, keep, left_values)
        fill_runs(pin, rows, keep + 1, right, right_values)
        return rows, keep, left_values, right_values

    # -- phase 2 ----------------------------------------------------------------
    @staticmethod
    def _base_profile(pin: np.ndarray) -> np.ndarray:
        """Per-boundary toggles among the bits already specified after phase 1."""
        n_patterns = pin.shape[1]
        if n_patterns < 2:
            return np.zeros(0, dtype=np.int64)
        left, right = pin[:, :-1], pin[:, 1:]
        fixed = (left != X) & (right != X) & (left != right)
        return np.count_nonzero(fixed, axis=0).astype(np.int64)

    def _phase2(self, pin: np.ndarray, choices: Choices) -> None:
        """Resolve every surviving X greedily against the running profile."""
        rows, cols, left_values, right_values = choices
        if rows.size == 0:
            return
        profile = self._base_profile(pin)
        # Most constrained first: choices whose two candidate boundaries are
        # already the most loaded are resolved before the flexible ones.
        # Ties keep phase 1's order (a stable sort).
        pressure = np.maximum(profile[cols - 1], profile[cols])
        order = np.argsort(-pressure, kind="stable")
        # The greedy is sequential; plain lists keep its per-step cost low.
        load = profile.tolist()
        takes_left = np.zeros(rows.size, dtype=bool)
        for i, col in zip(order.tolist(), cols[order].tolist()):
            # Left value: toggle at boundary col; right value: at col - 1.
            if load[col] <= load[col - 1]:
                takes_left[i] = True
                load[col] += 1
            else:
                load[col - 1] += 1
        pin[rows, cols] = np.where(takes_left, left_values, right_values)

    # -- driver -----------------------------------------------------------------
    def fill(self, patterns: TestSet) -> TestSet:
        pin = patterns.pin_matrix()
        if pin.size == 0:
            return patterns.filled(patterns.matrix.copy())
        self._phase2(pin, self._phase1(pin))
        return patterns.filled(pin.T)


register_filler("B-fill", XStatFill, aliases=["x-stat", "xstat", "xstat-fill", "b"])
