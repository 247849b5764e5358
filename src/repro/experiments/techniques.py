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

Every technique is one :func:`~repro.experiments.memo.best_fill` lookup in
:mod:`repro.experiments.memo`, keyed by content (a blake2b digest of the
matrix and its shape) and the registry names.  The memo keeps one entry per
(cube set, ordering) and per (ordered set, filler), so the techniques reuse
the orderings and fills the sweeps of Tables II-IV made: Tool reads the
sweep's best existing fill on the tool order, XStat the B-fill on the
X-Stat order and Proposed the DP-fill on the I-Ordering.  ISA and Adj-fill
fill once per ordered set, and Table VI grades exactly the fills Table V
ranked without recomputing them.  A lookup digests only the tool-ordered
set: the ordering entry keeps its ordered set's key, and the ordered set is
rebuilt only when a filler has to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cubes.cube import TestSet
from repro.experiments import memo

#: Technique column order used by Tables V and VI.
TECHNIQUES: List[str] = ["Tool", "ISA", "Adj-fill", "XStat", "Proposed"]

_EXISTING_FILLS = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill"]


@dataclass
class TechniqueOutcome:
    """A filled, ordered pattern set produced by one technique."""

    technique: str
    filled: TestSet
    peak_input_toggles: int


#: The (ordering, fillers) of each technique: Tool takes the first of the
#: existing fills with the least peak on the tool order.
_TECHNIQUE_FILLS: Dict[str, Tuple[str, List[str]]] = {
    "Tool": ("tool", _EXISTING_FILLS),
    "ISA": ("isa", ["Adj-fill"]),
    "Adj-fill": ("tool", ["Adj-fill"]),
    "XStat": ("xstat", ["B-fill"]),
    "Proposed": ("i-ordering", ["DP-fill"]),
}


def apply_technique(name: str, cubes: TestSet) -> TechniqueOutcome:
    """Run one technique on a tool-ordered cube set.

    Raises:
        KeyError: for unknown technique names.
    """
    if name not in _TECHNIQUE_FILLS:
        raise KeyError(f"unknown technique {name!r}; available: {TECHNIQUES}")
    ordering, fillers = _TECHNIQUE_FILLS[name]
    filled, peak = memo.best_fill(ordering, cubes, fillers)
    return TechniqueOutcome(technique=name, filled=filled, peak_input_toggles=peak)


def apply_all_techniques(cubes: TestSet) -> Dict[str, TechniqueOutcome]:
    """Run every technique of Tables V/VI on the same cube set."""
    return {name: apply_technique(name, cubes) for name in TECHNIQUES}
