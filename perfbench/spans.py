"""Outside-in tracing: wrap the program's public entry points, keep spans in memory.

Nothing under ``src/`` knows about this module.  :class:`Probe` replaces
public functions and methods with thin wrappers for the duration of one
repetition and restores them afterwards:

* a *span* wrapper (traced runs only) records ``(layer, start, end,
  parent)`` for every call, so a layer's self time is its spans' durations
  minus the part covered by child spans (:func:`self_times`);
* a *result hook* sees every call's arguments and result, which is where
  the per-layer counts are taken and where :mod:`perfbench.checks` grades the outputs.

Functions the program imports by name (``from repro.core.dpfill import
dp_fill``) are replaced in every loaded ``repro`` module that holds the
original object, so the wrapper sees calls from every call site.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Span recorded around the benchmark's own output checks; it is a child of
#: whatever layer was running, so checking never inflates a layer's self time.
CHECK_LAYER = "bench.check"


@dataclass
class Span:
    """One call of a wrapped entry point (times from ``time.perf_counter``)."""

    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the tracer's list, or -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Stack-based span recorder; spans stay in memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")
        self.spans[index].end = self.clock()

    def dump(self) -> List[Tuple[str, float, float, int]]:
        """Spans as plain tuples, for writing out after the run."""
        return [(s.layer, s.start, s.end, s.parent) for s in self.spans]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Σ self time per layer: each span's duration minus its direct children's.

    Children of one span never overlap (calls nest on one thread), so
    subtracting their durations removes exactly the covered part.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.layer] += span.duration - child_time[index]
    return dict(totals)


Hook = Callable[[tuple, dict, object], None]


class Probe:
    """Installs span wrappers and result hooks; :meth:`restore` undoes them.

    Args:
        tracer: record spans when given; ``None`` installs only the hooks.
        on_check: callback ``(seconds)`` told how long each result hook ran,
            so that time can be taken out of the measured phase.
    """

    def __init__(self, tracer: Optional[Tracer], on_check: Callable[[float], None]) -> None:
        self.tracer = tracer
        self.on_check = on_check
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn: Callable, layer: Optional[str], hook: Optional[Hook]) -> Callable:
        tracer = self.tracer if layer is not None else None
        on_check = self.on_check

        def wrapper(*args, **kwargs):
            index = tracer.begin(layer) if tracer is not None else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.end(index)
            if hook is not None:
                started = time.perf_counter()
                check = self.tracer.begin(CHECK_LAYER) if self.tracer is not None else -1
                try:
                    hook(args, kwargs, result)
                finally:
                    if self.tracer is not None:
                        self.tracer.end(check)
                    on_check(time.perf_counter() - started)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _set(self, owner: object, name: str, value: object) -> None:
        # vars() keeps a classmethod wrapper intact, so restore() is exact.
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def function(self, module: str, name: str, layer: Optional[str], hook: Optional[Hook] = None) -> None:
        """Wrap module-level function ``module.name`` at every import site."""
        if layer is None and hook is None:
            return
        original = getattr(importlib.import_module(module), name)
        wrapped = self._wrap(original, layer, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, name, None) is original:
                self._set(mod, name, wrapped)

    def method(self, cls: type, name: str, layer: Optional[str], hook: Optional[Hook] = None) -> None:
        """Wrap ``cls.name`` (a plain method, or a classmethod) in place."""
        if layer is None and hook is None:
            return
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self._wrap(raw.__func__, layer, hook)))
        else:
            self._set(cls, name, self._wrap(raw, layer, hook))

    def restore(self) -> None:
        """Put every original object back, newest first."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def subclasses(cls: type) -> List[type]:
    """``cls`` and every loaded subclass, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(subclasses(sub))
    return found
