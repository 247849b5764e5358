"""Output checks: every violation is counted as a failed op, never raised.

An *op* is one graded output: a filled set, a DP-fill certificate, a
Tables II-IV row, a Table V row, a power grade, or the rendered-table digest
of one seed.  :class:`Ledger` counts attempted and failed ops and keeps the
first few problem descriptions for the run record.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Don't-care code of ``repro.cubes.bits.X`` (the program's int8 bit encoding).
X = 2
MAX_PROBLEMS = 20


class Ledger:
    """Attempted/failed op counts plus the first :data:`MAX_PROBLEMS` problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, problem: Optional[str]) -> None:
        """Count one op; ``problem`` is ``None`` when it passed."""
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def error(self, what: str, exc: BaseException) -> None:
        """Count an exception that cut an op short."""
        self.op(f"{what}: {type(exc).__name__}: {exc}")


def fill_problem(source: np.ndarray, filled: np.ndarray) -> Optional[str]:
    """Why ``filled`` is not a valid X-fill of ``source`` (same ordering), or ``None``."""
    if source.shape != filled.shape:
        return f"shape {filled.shape} != {source.shape}"
    if (filled == X).any():
        return f"{int(np.count_nonzero(filled == X))} X bits left unfilled"
    care = source != X
    changed = int(np.count_nonzero(filled[care] != source[care]))
    if changed:
        return f"{changed} care bits changed"
    return None


def dp_problem(report) -> Optional[str]:
    """A DP-fill report that is not certified optimal, or ``None``."""
    if report.is_certified_optimal:
        return None
    return f"DP-fill peak {report.peak_toggles} above lower bound {report.lower_bound}"


def row_minimum_problem(row: Dict[str, object], fills: Sequence[str], best: str = "DP-fill") -> Optional[str]:
    """A Tables II-IV row where ``best`` is not the row minimum, or ``None``."""
    floor = min(row[name] for name in fills)
    if row[best] != floor:
        return f"{row.get('circuit')}: {best} {row[best]} is not the row minimum {floor}"
    return None


def technique_problem(peaks: Dict[str, int]) -> Optional[str]:
    """A Table V row where Proposed loses to a technique it provably dominates.

    Proposed is I-Ordering + DP-fill.  I-Ordering never beats the tool order
    under DP-fill, and DP-fill is optimal for the tool order, so Proposed can
    be no worse than Tool (tool order + best fill) or Adj-fill (tool order +
    adjacent fill).  ISA and XStat use other orderings and carry no such bound.
    """
    bound = min(peaks["Tool"], peaks["Adj-fill"])
    if peaks["Proposed"] > bound:
        return f"Proposed {peaks['Proposed']} above Tool/Adj-fill {bound}"
    return None


def power_problem(report) -> Optional[str]:
    """A power grade that is not a finite positive peak, or ``None``."""
    peak = report.peak_power_uw
    if math.isfinite(peak) and peak > 0:
        return None
    return f"{report.circuit_name}: peak power {peak!r}"


def digest(text: str) -> str:
    """Content digest of rendered tables."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
