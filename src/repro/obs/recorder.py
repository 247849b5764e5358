"""Zero-overhead telemetry recorder: counters, spans and an event log.

The module keeps one process-wide *active recorder*.  By default it is a
:class:`NullRecorder` whose every operation is a no-op attribute call, so
instrumented code costs almost nothing when tracing is off.  Setting
``REPRO_TRACE=1`` in the environment (checked once at import) or calling
:func:`enable` swaps in a real :class:`Recorder`.

Three primitives:

* **counters** — monotonic integers keyed by dotted name
  (``fault_sim.cone_evaluations``, ``podem.backtracks``).  Hot kernels do
  *not* call :func:`counter` per inner-loop iteration; they accumulate into
  plain locals/dicts exactly as before and flush once per run with
  :func:`add_counters`, which keeps the enabled path cheap and the disabled
  path free.
* **spans** — wall-clock timers keyed by a stable ``/``-separated path
  (``fault_sim/b12/lanes/grade``).  Nested use is fine; each span records
  into a flat ``path -> [count, total_s, max_s]`` table.
* **events** — typed, timestamped records of failures a run caught and
  worked around; rule R6 of :mod:`repro.analysis` names :func:`event` as
  the way to record one.

**Clock anchoring.**  Each recorder pairs one ``time.time()`` wall anchor
with a ``time.perf_counter()`` reading at construction.  Span durations are
still measured on the monotonic clock, but every published timestamp —
event ``ts`` fields and timeline interval starts alike — is the anchor plus
a monotonic offset, so one recorder's events and intervals share a single
axis.

**Timeline tier.**  With the timeline on (``REPRO_TIMELINE=1`` or
:func:`enable_timeline`; requires tracing), every closed span additionally
appends one *interval* — ``{path, start_s, dur_s, pid}`` — to a
ring-buffer capped list (:data:`MAX_INTERVALS`, overflow counted in
``obs.intervals_dropped``).  Intervals feed ``python -m repro.obs
export-trace`` / ``report``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import envvars

TRACE_ENV_VAR = envvars.TRACE.name
TIMELINE_ENV_VAR = envvars.TIMELINE.name

#: In-memory event cap; beyond it events are dropped (and counted in the
#: ``obs.events_dropped`` counter) so a chatty run cannot grow unbounded.
MAX_EVENTS = 10_000

#: In-memory timeline cap; beyond it span intervals are dropped (and counted
#: in ``obs.intervals_dropped``) — same bounded-memory contract as events.
MAX_INTERVALS = 20_000

class _NullSpan:
    """Reusable no-op context manager (a single shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder with every operation stubbed out; the disabled path."""

    enabled = False
    timeline = False

    __slots__ = ()

    def counter(self, name: str, n: int = 1) -> None:
        return None

    def add_counters(self, counters: Mapping[str, int], prefix: str = "") -> None:
        return None

    def span(self, path: str) -> _NullSpan:
        return _NULL_SPAN

    def event(self, kind: str, **fields: Any) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "spans": {}, "events": [], "intervals": []}

    def reset(self) -> None:
        return None

    def enable_timeline(self, on: bool = True) -> None:
        return None


class _Span:
    """Times one ``with`` block and folds it into the recorder's table."""

    __slots__ = ("_recorder", "_path", "_start")

    def __init__(self, recorder: "Recorder", path: str) -> None:
        self._recorder = recorder
        self._path = path

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._recorder._record_span(self._path, elapsed, self._start)


class Recorder:
    """Collects counters, spans and events; thread-safe via one lock."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        # path -> [count, total_s, max_s]
        self._spans: Dict[str, List[float]] = {}
        self._events: List[Dict[str, Any]] = []
        # One wall reading paired with one monotonic reading: the per-process
        # clock anchor.  Everything published (event ts, interval starts) is
        # anchor + perf_counter offset, so spans and events share one axis.
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()
        self._pid = os.getpid()
        #: Timeline tier on/off; defaults from ``REPRO_TIMELINE``.
        self.timeline = bool(envvars.TIMELINE.read())
        # Own spans as (path, start_perf, dur_s); converted to wall dicts at
        # snapshot time so the hot record path stays a tuple append.
        self._intervals: List[Tuple[str, float, float]] = []

    # -- clock -------------------------------------------------------------
    def now(self) -> float:
        """Anchored wall time: the wall anchor plus a monotonic offset."""
        return self._anchor_wall + (time.perf_counter() - self._anchor_perf)

    def enable_timeline(self, on: bool = True) -> None:
        """Switch the timeline tier on/off for this recorder."""
        with self._lock:
            self.timeline = bool(on)

    # -- counters ---------------------------------------------------------
    def counter(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def add_counters(self, counters: Mapping[str, int], prefix: str = "") -> None:
        with self._lock:
            table = self._counters
            for name, value in counters.items():
                if not isinstance(value, int) or isinstance(value, bool):
                    continue  # stats dicts carry labels too; only ints count
                key = prefix + name
                table[key] = table.get(key, 0) + value

    # -- spans ------------------------------------------------------------
    def span(self, path: str) -> _Span:
        return _Span(self, path)

    def _record_span(
        self, path: str, elapsed: float, start: Optional[float] = None
    ) -> None:
        with self._lock:
            row = self._spans.get(path)
            if row is None:
                self._spans[path] = [1, elapsed, elapsed]
            else:
                row[0] += 1
                row[1] += elapsed
                if elapsed > row[2]:
                    row[2] = elapsed
            if self.timeline and start is not None:
                if len(self._intervals) < MAX_INTERVALS:
                    self._intervals.append((path, start, elapsed))
                else:
                    self._counters["obs.intervals_dropped"] = (
                        self._counters.get("obs.intervals_dropped", 0) + 1
                    )

    # -- events -----------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> None:
        record = {"ts": self.now(), "kind": kind}
        record.update(fields)
        with self._lock:
            if len(self._events) < MAX_EVENTS:
                self._events.append(record)
            else:
                self._counters["obs.events_dropped"] = (
                    self._counters.get("obs.events_dropped", 0) + 1
                )

    # -- snapshots --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            intervals = [
                {
                    "path": path,
                    "start_s": self._anchor_wall + (start - self._anchor_perf),
                    "dur_s": dur,
                    "pid": self._pid,
                }
                for path, start, dur in self._intervals
            ]
            return {
                "counters": dict(self._counters),
                "spans": {path: list(row) for path, row in self._spans.items()},
                "events": [dict(record) for record in self._events],
                "intervals": intervals,
                "clock": {"wall_anchor_s": self._anchor_wall, "pid": self._pid},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._spans.clear()
            del self._events[:]
            del self._intervals[:]


_NULL = NullRecorder()
_active: Any = _NULL
_state_lock = threading.Lock()


def active() -> Any:
    """The currently active recorder (null or real)."""
    return _active


def enabled() -> bool:
    return _active.enabled


def enable() -> Recorder:
    """Swap in a real recorder (idempotent); returns it."""
    global _active
    with _state_lock:
        if not _active.enabled:
            _active = Recorder()
        return _active


def disable() -> None:
    """Swap the null recorder back in, discarding collected telemetry."""
    global _active
    with _state_lock:
        _active = _NULL


# Module-level conveniences delegating to the active recorder.  These are
# plain functions (not bound methods captured at import) so enable/disable
# swaps take effect everywhere immediately.
def counter(name: str, n: int = 1) -> None:
    _active.counter(name, n)


def add_counters(counters: Mapping[str, int], prefix: str = "") -> None:
    _active.add_counters(counters, prefix)


def span(path: str):
    return _active.span(path)


def event(kind: str, **fields: Any) -> None:
    _active.event(kind, **fields)


def snapshot() -> Dict[str, Any]:
    return _active.snapshot()


def reset() -> None:
    _active.reset()


def enable_timeline(on: bool = True) -> None:
    """Switch the active recorder's timeline tier on/off (no-op when
    tracing is off — enable tracing first)."""
    _active.enable_timeline(on)


def timeline_enabled() -> bool:
    """Whether the active recorder records span intervals."""
    return _active.enabled and _active.timeline


if envvars.TRACE.read():  # pragma: no cover - env path
    enable()
