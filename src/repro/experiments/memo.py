"""Process-wide memo of the orderings and fills the paper's artefacts share.

The evaluation takes one cube set per benchmark through the same orderings
and fills again and again: Tables II-IV sweep the fills under the tool,
X-Stat and I-Orderings, Table V ranks five (ordering, fill) techniques,
Table VI grades those same technique fills for power, and Fig. 2 reads the
I-Ordering trace and three ordered sets once more.  Routed through this
module, each (cube set, ordering), each (ordered set, sweep fill) and each
(cube set, technique) is computed once per process.

Keys are by content: a blake2b digest of the matrix bytes plus its shape,
and the registry name.  ``TestSet`` defines ``__eq__`` without a hash,
orderings return fresh objects, and a sweep may be handed an ordered set
built elsewhere, so identity would miss.  A registry name fixes its
algorithm, because the memo only calls ``get_ordering(name)`` /
``get_filler(name)`` without keyword arguments and re-registering a name
with a different factory raises.

Entries hold no pin matrices.  An ordering keeps its permutation, peak,
trace and iteration count, and its ordered set is rebuilt with
:meth:`~repro.cubes.cube.TestSet.reordered`; a sweep fill keeps its peak;
a technique keeps its filled matrix bit-packed (an eighth of the ``int8``
bytes) with its pattern names and peak.  Keeping the ordered and filled
sets themselves raised the full-scale b17+b18 peak RSS by 7% and made the
2048-cube b14 run's RSS land on one of two levels from run to run.

The memo is bounded by :data:`MAX_ENTRIES` (least recently used out first)
and has no switch: every entry is a pure function of its key.  Worker
processes each keep their own.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.ordering import InterleaveStep, OrderingResult
from repro.cubes.cube import TestSet
from repro.cubes.metrics import peak_toggles
from repro.filling import get_filler
from repro.orderings import get_ordering

#: Entries kept per process; one benchmark's artefacts use about 30.
MAX_ENTRIES = 1024

_ENTRIES: "OrderedDict[Hashable, object]" = OrderedDict()


@dataclass(frozen=True)
class _Ordering:
    permutation: np.ndarray
    peak: Optional[int]
    trace: Tuple[InterleaveStep, ...]
    iterations: int


@dataclass(frozen=True)
class _Filled:
    bits: np.ndarray
    shape: Tuple[int, int]
    names: List[Optional[str]]
    peak: int


def content_key(patterns: TestSet) -> Tuple[bytes, Tuple[int, ...]]:
    """Digest of a set's matrix bytes plus its shape; equal content, equal key."""
    matrix = np.ascontiguousarray(patterns.matrix)
    return hashlib.blake2b(matrix.data, digest_size=16).digest(), matrix.shape


def _cached(key: Hashable, compute: Callable[[], object]) -> object:
    entry = _ENTRIES.get(key)
    if entry is None:
        entry = _ENTRIES[key] = compute()
        if len(_ENTRIES) > MAX_ENTRIES:
            _ENTRIES.popitem(last=False)
    else:
        _ENTRIES.move_to_end(key)
    return entry


def clear() -> None:
    """Forget every entry."""
    _ENTRIES.clear()


def ordering(name: str, cubes: TestSet) -> OrderingResult:
    """``get_ordering(name).order(cubes)``, run once per (cube set, name)."""

    def compute() -> _Ordering:
        result = get_ordering(name).order(cubes)
        permutation = np.asarray(result.permutation, dtype=np.int32)
        return _Ordering(permutation, result.peak, tuple(result.trace), result.iterations)

    entry = _cached(("ordering", name, content_key(cubes)), compute)
    return OrderingResult(
        ordered=cubes.reordered(entry.permutation),
        permutation=entry.permutation.tolist(),
        peak=entry.peak,
        trace=list(entry.trace),
        iterations=entry.iterations,
    )


def fill_peaks(ordered: TestSet, names: List[str]) -> Dict[str, int]:
    """Peak input toggles of each named filler on ``ordered``, filled once per (set, name)."""
    key = content_key(ordered)
    # _cached calls the lambda before the loop moves on, so it sees this name.
    return {
        name: _cached(("fill", name, key), lambda: peak_toggles(get_filler(name).fill(ordered)))
        for name in names
    }


def technique(name: str, cubes: TestSet, build: Callable[[TestSet], TestSet]) -> Tuple[TestSet, int]:
    """The filled set ``build(cubes)`` of technique ``name`` and its peak.

    ``build`` must be the one builder registered for ``name``; it runs once
    per (cube set, name), and every call unpacks the stored fill.
    """

    def compute() -> _Filled:
        filled = build(cubes)
        return _Filled(np.packbits(filled.matrix), filled.matrix.shape, filled.names, peak_toggles(filled))

    entry = _cached(("technique", name, content_key(cubes)), compute)
    bits = np.unpackbits(entry.bits, count=entry.shape[0] * entry.shape[1])
    return TestSet.from_matrix(bits.reshape(entry.shape), names=entry.names), entry.peak
