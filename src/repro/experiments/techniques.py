"""The end-to-end low-power-test techniques compared in Tables V and VI.

A *technique* is an (ordering, filling) pair as the paper frames its final
comparison:

=============  ========================================================
column         reconstruction
=============  ========================================================
``Tool``       tool ordering + the best of the pre-existing fills
               (MT / R / 0 / 1 / B), mirroring "minimum peak input
               toggles obtained among all aforementioned X-filling
               methods" under the tool ordering
``ISA``        ISA (Girard-style nearest-neighbour) ordering + adjacent
               fill, the test-vector-ordering technique of ref. [20]
``Adj-fill``   tool ordering + adjacent fill, the X-filling technique of
               ref. [21]
``XStat``      X-Stat ordering + X-Stat fill, ref. [22]
``Proposed``   I-Ordering + DP-fill (this paper)
=============  ========================================================

Every technique goes through :mod:`repro.experiments.memo`, keyed by the
content of the cube set (a blake2b digest of its matrix and shape) and the
technique name: its ordering is the one the sweeps already ran on the same
cube set, the Tool column picks its fill from the sweep's memoised peaks and
fills only the winner, and the filled set is computed once per cube set, so
Table VI grades exactly the fills Table V ranked without recomputing them.
The memo keeps each fill bit-packed (an eighth of its ``int8`` bytes) with
its pattern names and peak, not as a ``TestSet``: holding the filled and
ordered sets raised full-scale peak RSS by 7%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.dpfill import dp_fill
from repro.cubes.cube import TestSet
from repro.experiments import memo
from repro.filling import get_filler

#: Technique column order used by Tables V and VI.
TECHNIQUES: List[str] = ["Tool", "ISA", "Adj-fill", "XStat", "Proposed"]

_EXISTING_FILLS = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill"]


@dataclass
class TechniqueOutcome:
    """A filled, ordered pattern set produced by one technique."""

    technique: str
    filled: TestSet
    peak_input_toggles: int


def _best_existing_fill(ordered: TestSet) -> TestSet:
    peaks = memo.fill_peaks(ordered, _EXISTING_FILLS)
    # min() keeps the first of equal peaks, in _EXISTING_FILLS order.
    best = min(_EXISTING_FILLS, key=peaks.__getitem__)
    return get_filler(best).fill(ordered)


def _tool_technique(cubes: TestSet) -> TestSet:
    return _best_existing_fill(memo.ordering("tool", cubes).ordered)


def _isa_technique(cubes: TestSet) -> TestSet:
    return get_filler("Adj-fill").fill(memo.ordering("isa", cubes).ordered)


def _adjfill_technique(cubes: TestSet) -> TestSet:
    return get_filler("Adj-fill").fill(memo.ordering("tool", cubes).ordered)


def _xstat_technique(cubes: TestSet) -> TestSet:
    return get_filler("B-fill").fill(memo.ordering("xstat", cubes).ordered)


def _proposed_technique(cubes: TestSet) -> TestSet:
    return dp_fill(memo.ordering("i-ordering", cubes).ordered).filled


_TECHNIQUE_BUILDERS: Dict[str, Callable[[TestSet], TestSet]] = {
    "Tool": _tool_technique,
    "ISA": _isa_technique,
    "Adj-fill": _adjfill_technique,
    "XStat": _xstat_technique,
    "Proposed": _proposed_technique,
}


def apply_technique(name: str, cubes: TestSet) -> TechniqueOutcome:
    """Run one technique on a tool-ordered cube set.

    Raises:
        KeyError: for unknown technique names.
    """
    if name not in _TECHNIQUE_BUILDERS:
        raise KeyError(f"unknown technique {name!r}; available: {TECHNIQUES}")
    filled, peak = memo.technique(name, cubes, _TECHNIQUE_BUILDERS[name])
    return TechniqueOutcome(technique=name, filled=filled, peak_input_toggles=peak)


def apply_all_techniques(cubes: TestSet) -> Dict[str, TechniqueOutcome]:
    """Run every technique of Tables V/VI on the same cube set."""
    return {name: apply_technique(name, cubes) for name in TECHNIQUES}
