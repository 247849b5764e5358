"""Timeline tier: per-process interval tracks and Chrome trace export.

The recorder's timeline (see :mod:`repro.obs.recorder`) produces a flat
list of wall-anchored intervals — ``{path, start_s, dur_s, pid, task?}`` —
merged across every process that contributed a task snapshot.  This module
turns that list into

* **tracks**: one per pid, with union busy time, idle gaps, utilization
  and makespan math (consumed by the run report), and
* **Chrome trace-event JSON** (:func:`write_trace`): the ``traceEvents``
  array Perfetto / ``chrome://tracing`` render, one thread track per
  process, span paths as complete (``"X"``) events with task ids in
  ``args``, and the run's event log as instant (``"i"``) events on a
  dedicated track — events and intervals share one axis because both are
  stamped through the same per-recorder clock anchor.

Timestamps in the exported trace are microseconds relative to the earliest
record (``t0``), which keeps the JSON small, stable for golden-file tests,
and immediately readable in a viewer; the absolute wall anchor is preserved
in ``otherData.t0_wall_s``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


def track_label(pid: Optional[int]) -> str:
    """Human label for one track: the bare pid."""
    if pid:
        return f"pid-{pid}"
    return "main"


def tracks(
    intervals: Sequence[Mapping[str, Any]],
) -> "Dict[Optional[int], List[Dict[str, Any]]]":
    """Group intervals into per-pid tracks, sorted by start.

    Track order is deterministic: sorted by label, so reports and traces
    are stable across dict/arrival order.
    """
    grouped: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for record in intervals:
        grouped.setdefault(record.get("pid"), []).append(dict(record))
    for rows in grouped.values():
        rows.sort(key=lambda r: (r.get("start_s", 0.0), r.get("path", "")))
    return dict(sorted(grouped.items(), key=lambda item: track_label(item[0])))


def merged_busy(
    rows: Sequence[Mapping[str, Any]],
) -> Tuple[float, List[Tuple[float, float]]]:
    """Union busy seconds of one track plus its internal idle gaps.

    Overlapping/nested spans (a task span containing kernel spans) are
    merged before summing, so busy time is genuine occupancy, never double
    counted.  Gaps are the maximal idle windows *between* merged busy
    segments — idle before the first or after the last interval is the
    caller's business (it depends on the run's makespan).
    """
    segments = sorted(
        (float(r.get("start_s", 0.0)), float(r.get("start_s", 0.0)) + float(r.get("dur_s", 0.0)))
        for r in rows
    )
    busy = 0.0
    gaps: List[Tuple[float, float]] = []
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in segments:
        if cur_start is None:
            cur_start, cur_end = start, end
            continue
        if start > cur_end:
            gaps.append((cur_end, start))
            busy += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        busy += cur_end - cur_start
    return busy, gaps


def span_bounds(
    intervals: Sequence[Mapping[str, Any]],
    events: Sequence[Mapping[str, Any]] = (),
) -> Optional[Tuple[float, float]]:
    """``(t_min, t_max)`` across intervals and events, or ``None`` if empty."""
    lows: List[float] = []
    highs: List[float] = []
    for record in intervals:
        start = float(record.get("start_s", 0.0))
        lows.append(start)
        highs.append(start + float(record.get("dur_s", 0.0)))
    for record in events:
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            lows.append(float(ts))
            highs.append(float(ts))
    if not lows:
        return None
    return min(lows), max(highs)


def _us(seconds: float) -> float:
    """Seconds → microseconds, rounded to 0.1 us for stable JSON output."""
    return round(seconds * 1e6, 1)


def trace_events(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Build the Chrome trace-event array from a metrics payload.

    Accepts a metrics payload (or a raw recorder snapshot): reads
    ``intervals`` and ``events``.  Returns metadata (``"M"``) records
    naming each process/track, one complete (``"X"``) record per interval
    with the task id in ``args``, and one instant (``"i"``) record per
    event-log entry on a dedicated ``events`` track.
    """
    intervals = payload.get("intervals") or []
    events = payload.get("events") or []
    bounds = span_bounds(intervals, events)
    t0 = bounds[0] if bounds else 0.0

    grouped = tracks(intervals)
    out: List[Dict[str, Any]] = []
    # One track per process, on thread 1; the event log takes the parent
    # process's next thread.
    clock = payload.get("clock") or {}
    parent_pid = clock.get("pid")
    for key in grouped:
        pid = key or 0
        role = "parent" if pid == parent_pid else "worker"
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {role} {pid}"},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": 1,
                "args": {"name": track_label(key)},
            }
        )

    for key, rows in grouped.items():
        pid = key or 0
        for record in rows:
            entry: Dict[str, Any] = {
                "name": record.get("path", "?"),
                "cat": "span",
                "ph": "X",
                "ts": _us(float(record.get("start_s", 0.0)) - t0),
                "dur": _us(float(record.get("dur_s", 0.0))),
                "pid": pid,
                "tid": 1,
            }
            task = record.get("task")
            if task is not None:
                entry["args"] = {"task": task}
            out.append(entry)

    if events:
        event_pid = parent_pid or 0
        event_tid = 2 if event_pid in {key or 0 for key in grouped} else 1
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": event_pid,
                "tid": event_tid,
                "args": {"name": "events"},
            }
        )
        for record in events:
            ts = record.get("ts")
            if not isinstance(ts, (int, float)):
                continue
            args = {
                k: v for k, v in record.items() if k not in ("ts", "kind")
            }
            out.append(
                {
                    "name": str(record.get("kind", "event")),
                    "cat": "event",
                    "ph": "i",
                    "s": "g",
                    "ts": _us(float(ts) - t0),
                    "pid": event_pid,
                    "tid": event_tid,
                    "args": args,
                }
            )
    return out


def trace_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The complete Chrome trace JSON object for one metrics payload."""
    intervals = payload.get("intervals") or []
    events = payload.get("events") or []
    bounds = span_bounds(intervals, events)
    return {
        "traceEvents": trace_events(payload),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "t0_wall_s": bounds[0] if bounds else 0.0,
        },
    }


def write_trace(path: str, payload: Mapping[str, Any]) -> str:
    """Write the Chrome trace JSON for ``payload`` to ``path``; returns it.

    Open the result at https://ui.perfetto.dev or ``chrome://tracing``.
    """
    trace = trace_payload(payload)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return path
