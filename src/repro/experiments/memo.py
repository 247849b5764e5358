"""Process-wide memo of the orderings and fills the paper's artefacts share.

The evaluation takes one cube set per benchmark through the same orderings
and fills again and again: Tables II-IV sweep the fills under the tool,
X-Stat and I-Orderings, Table V ranks five (ordering, fill) techniques,
Table VI grades those same technique fills for power, and Fig. 2 reads the
I-Ordering trace and three ordered sets once more.  Routed through this
module, each (cube set, ordering) and each (ordered set, filler) is
computed once per process.  A technique is a lookup of one (ordered set,
filler) entry, so Table V reads the fills the sweeps already made: Tool is
the sweep's best existing fill on the tool order, XStat is the B-fill on
the X-Stat order and Proposed the DP-fill on the I-Ordering.

Keys are by content: a blake2b digest of the matrix bytes plus its shape,
and the registry name.  ``TestSet`` defines ``__eq__`` without a hash,
orderings return fresh objects, and a sweep may be handed an ordered set
built elsewhere, so identity would miss.  A registry name fixes its
algorithm, because the memo only calls ``get_ordering(name)`` /
``get_filler(name)`` without keyword arguments and re-registering a name
with a different factory raises.

Entries hold no pin matrices.  An ordering keeps its permutation, peak,
trace and iteration count plus its ordered set's content key, and its
ordered set is rebuilt with :meth:`~repro.cubes.cube.TestSet.reordered`;
:func:`best_fill` looks fills up by that key and rebuilds the ordered set
only when a filler has to run.  A fill keeps its peak and
its filled matrix bit-packed (an eighth of the ``int8`` bytes); the
one-pass fills of :data:`PEAK_ONLY` keep their peak alone and are refilled,
once, the first time :func:`best_fill` asks for the set.  Keeping the ordered
and filled sets themselves raised the full-scale b17+b18 peak RSS by 7% and
made the 2048-cube b14 run's RSS land on one of two levels from run to run.

The memo is bounded by :data:`MAX_ENTRIES` (least recently used out first)
and has no switch: every entry is a pure function of its key.
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

#: Entries kept per process; one benchmark's artefacts use about 25.
MAX_ENTRIES = 1024

#: Fills cheap enough to redo that their entries keep only the peak.
PEAK_ONLY = frozenset({"MT-fill", "R-fill", "0-fill", "1-fill"})

_ENTRIES: "OrderedDict[Hashable, object]" = OrderedDict()


@dataclass(frozen=True)
class _Ordering:
    permutation: np.ndarray
    peak: Optional[int]
    trace: Tuple[InterleaveStep, ...]
    iterations: int
    ordered_key: Tuple[bytes, Tuple[int, ...]]  # content_key of the ordered set


@dataclass(frozen=True)
class _Fill:
    peak: int
    bits: Optional[np.ndarray]  # the packed filled matrix; None keeps the peak alone


def content_key(patterns: TestSet) -> Tuple[bytes, Tuple[int, ...]]:
    """Digest of a set's matrix bytes plus its shape; equal content, equal key."""
    matrix = np.ascontiguousarray(patterns.matrix)
    return hashlib.blake2b(matrix.data, digest_size=16).digest(), matrix.shape


def _store(key: Hashable, entry: object) -> None:
    _ENTRIES[key] = entry
    _ENTRIES.move_to_end(key)
    if len(_ENTRIES) > MAX_ENTRIES:
        _ENTRIES.popitem(last=False)


def _cached(key: Hashable, compute: Callable[[], object]) -> object:
    entry = _ENTRIES.get(key)
    if entry is None:
        entry = compute()
    _store(key, entry)
    return entry


def clear() -> None:
    """Forget every entry."""
    _ENTRIES.clear()


def _ordering(name: str, cubes: TestSet) -> _Ordering:
    def compute() -> _Ordering:
        result = get_ordering(name).order(cubes)
        permutation = np.asarray(result.permutation, dtype=np.int32)
        return _Ordering(
            permutation,
            result.peak,
            tuple(result.trace),
            result.iterations,
            content_key(result.ordered),
        )

    return _cached(("ordering", name, content_key(cubes)), compute)


def ordering(name: str, cubes: TestSet) -> OrderingResult:
    """``get_ordering(name).order(cubes)``, run once per (cube set, name)."""
    entry = _ordering(name, cubes)
    return OrderingResult(
        ordered=cubes.reordered(entry.permutation),
        permutation=entry.permutation.tolist(),
        peak=entry.peak,
        trace=list(entry.trace),
        iterations=entry.iterations,
    )


def _fill(
    name: str, digest: Hashable, ordered: Callable[[], TestSet], keep_bits: bool
) -> Tuple[_Fill, Optional[TestSet]]:
    """The entry of (set keyed ``digest``, ``name``), and the filled set if the filler ran now.

    The filler runs on ``ordered()`` on a miss, or when ``keep_bits`` asks
    for the set of a peak-only entry, which from then on keeps the packed
    fill too.
    """
    key = ("fill", name, digest)
    entry = _ENTRIES.get(key)
    if entry is not None and (entry.bits is not None or not keep_bits):
        _store(key, entry)
        return entry, None
    filled = get_filler(name).fill(ordered())
    packed = keep_bits or name not in PEAK_ONLY
    entry = _Fill(peak_toggles(filled), np.packbits(filled.matrix) if packed else None)
    _store(key, entry)
    return entry, filled


def fill_peaks(ordered: TestSet, names: List[str]) -> Dict[str, int]:
    """Peak input toggles of each named filler on ``ordered``, filled once per (set, name)."""
    digest = content_key(ordered)
    return {name: _fill(name, digest, lambda: ordered, False)[0].peak for name in names}


def best_fill(ordering_name: str, cubes: TestSet, fillers: List[str]) -> Tuple[TestSet, int]:
    """The first of ``fillers`` with the least peak on ``cubes`` under an ordering.

    Returns that filler's fill of the ordered set and its peak, filled once
    per (ordered set, filler).  Only ``cubes`` is digested: the ordered
    set's key comes from the ordering's entry, and the set itself is rebuilt
    only if a filler has to run.  A hit unpacks the stored fill; the pattern
    names are the ordered set's, as every filler keeps them.
    """
    entry = _ordering(ordering_name, cubes)
    built: List[TestSet] = []

    def ordered() -> TestSet:
        if not built:
            built.append(cubes.reordered(entry.permutation))
        return built[0]

    digest = entry.ordered_key
    filler = fillers[0]
    if len(fillers) > 1:
        peaks = {name: _fill(name, digest, ordered, False)[0].peak for name in fillers}
        # min() keeps the first of equal peaks, in ``fillers`` order.
        filler = min(fillers, key=peaks.__getitem__)
    fill, fresh = _fill(filler, digest, ordered, True)
    if fresh is not None:
        return fresh, fill.peak
    rows, pins = digest[1]
    bits = np.unpackbits(fill.bits, count=rows * pins).reshape(rows, pins)
    names = cubes.names
    return TestSet.from_matrix(bits, names=[names[i] for i in entry.permutation]), fill.peak
