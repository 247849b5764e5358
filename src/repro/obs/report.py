"""Human run reports from a metrics payload (``python -m repro.obs report``).

Answers the questions a slow pooled run raises: where did wall-clock go
per kernel, which process was the straggler, how long did the parent sit
idle, and whether the pool was lost and the run fell back in process.
Input is a metrics artifact (``--metrics`` / ``REPRO_METRICS``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.obs import timeline

#: Event kinds recapped in detail (the fallback machinery's decisions).
RECAP_KINDS = ("pool_unavailable", "task_failed", "transport_lost")

#: Cap per-kind detail lines so a failure-heavy run stays readable.
MAX_DETAIL_LINES = 8


def _span_rows(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Normalise spans: metrics artifacts carry a list, snapshots a dict."""
    spans = payload.get("spans") or []
    if isinstance(spans, Mapping):
        return [
            {"path": path, "count": row[0], "total_s": row[1], "max_s": row[2]}
            for path, row in sorted(spans.items())
        ]
    return [dict(row) for row in spans]


def _fmt_s(seconds: float) -> str:
    if seconds >= 100.0:
        return f"{seconds:.0f}s"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _describe(record: Mapping[str, Any]) -> str:
    parts: List[str] = []
    task_id = record.get("task_id")
    if task_id is not None:
        parts.append(f"task {task_id}")
    error = record.get("error")
    if error is not None:
        parts.append(f"error={error}")
    detail = record.get("detail")
    if detail is not None:
        parts.append(f"detail={detail}")
    return ", ".join(parts) if parts else "(no detail)"


def _timeline_section(payload: Mapping[str, Any], lines: List[str]) -> None:
    intervals = payload.get("intervals") or []
    if not intervals:
        lines.append(
            "timeline: no intervals recorded (set REPRO_TIMELINE=1 or pass "
            "--trace-out to capture per-process tracks)"
        )
        return
    bounds = timeline.span_bounds(intervals)
    assert bounds is not None
    t_min, t_max = bounds
    makespan = max(t_max - t_min, 1e-12)
    serial = sum(float(r.get("dur_s", 0.0)) for r in intervals)
    union_busy, _ = timeline.merged_busy(intervals)
    grouped = timeline.tracks(intervals)

    clock = payload.get("clock") or {}
    parent_key = clock.get("pid")

    lines.append("timeline")
    lines.append(
        f"  makespan {_fmt_s(makespan)}; sum of span times {_fmt_s(serial)} "
        f"(critical-path parallelism {serial / makespan:.2f}x); "
        f"tracks cover {100.0 * min(union_busy / makespan, 1.0):.1f}% of makespan"
    )
    header = (
        f"  {'track':<24} {'spans':>5} {'busy':>9} {'util':>6} "
        f"{'first..last':>13} {'largest idle gap':>17}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    last_end_by_track = {}
    for key, rows in grouped.items():
        label = timeline.track_label(key)
        busy, gaps = timeline.merged_busy(rows)
        start = min(float(r["start_s"]) for r in rows)
        end = max(float(r["start_s"]) + float(r["dur_s"]) for r in rows)
        last_end_by_track[key] = end
        # Boundary idle counts too: a process that joined late or went quiet
        # early was idle relative to the run, not just between its own spans.
        all_gaps = [(t_min, start)] + list(gaps) + [(end, t_max)]
        widest = max(all_gaps, key=lambda g: g[1] - g[0])
        gap_text = (
            f"{_fmt_s(widest[1] - widest[0])} "
            f"@+{_fmt_s(max(widest[0] - t_min, 0.0))}"
            if widest[1] - widest[0] > 1e-9
            else "none"
        )
        marker = "  <- parent" if key == parent_key else ""
        lines.append(
            f"  {label:<24} {len(rows):>5} {_fmt_s(busy):>9} "
            f"{100.0 * busy / makespan:>5.1f}% "
            f"{_fmt_s(start - t_min):>5}..{_fmt_s(end - t_min):<6} "
            f"{gap_text:>17}{marker}"
        )
    straggler_key = max(last_end_by_track, key=lambda k: last_end_by_track[k])
    lines.append(
        f"  straggler: {timeline.track_label(straggler_key)} "
        f"(finished last, at +{_fmt_s(last_end_by_track[straggler_key] - t_min)})"
    )
    if parent_key in grouped:
        busy, gaps = timeline.merged_busy(grouped[parent_key])
        start = min(float(r["start_s"]) for r in grouped[parent_key])
        end = max(
            float(r["start_s"]) + float(r["dur_s"]) for r in grouped[parent_key]
        )
        all_gaps = [(t_min, start)] + list(gaps) + [(end, t_max)]
        widest = max(all_gaps, key=lambda g: g[1] - g[0])
        if widest[1] - widest[0] > 1e-9:
            lines.append(
                f"  parent idle gap: {_fmt_s(widest[1] - widest[0])} "
                f"starting at +{_fmt_s(max(widest[0] - t_min, 0.0))} "
                "(parent waiting on workers)"
            )


def _events_section(
    events: Sequence[Mapping[str, Any]], lines: List[str]
) -> None:
    if not events:
        lines.append("events: none recorded")
        return
    counts: Dict[str, int] = {}
    for record in events:
        kind = str(record.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines.append(
        "events: "
        + ", ".join(f"{kind} x{n}" for kind, n in sorted(counts.items()))
    )
    for kind in RECAP_KINDS:
        matching = [r for r in events if r.get("kind") == kind]
        if not matching:
            continue
        lines.append(f"  {kind} ({len(matching)}):")
        for record in matching[:MAX_DETAIL_LINES]:
            lines.append(f"    - {_describe(record)}")
        if len(matching) > MAX_DETAIL_LINES:
            lines.append(f"    ... and {len(matching) - MAX_DETAIL_LINES} more")


def render_report(payload: Mapping[str, Any]) -> str:
    """Render the run report for one metrics payload (a metrics artifact
    dict of any schema, or a recorder snapshot)."""
    lines: List[str] = ["repro.obs run report", "=" * 21]
    meta = payload.get("meta") or {}
    for key in ("tool", "circuit", "artifacts", "benchmarks", "jobs", "seed", "elapsed_s"):
        if key in meta:
            lines.append(f"{key}: {meta[key]}")
    lines.append(
        f"schema: {payload.get('schema', '?')}; "
        f"enabled: {payload.get('enabled', '?')}; "
        f"truncated: {payload.get('truncated', False)}"
    )
    env = meta.get("env") or {}
    if env:
        lines.append(
            "env: " + " ".join(f"{k}={v}" for k, v in sorted(env.items()))
        )
    lines.append("")

    spans = _span_rows(payload)
    if spans:
        lines.append("per-kernel spans")
        header = f"  {'span':<44} {'count':>6} {'total':>9} {'max':>9}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in sorted(spans, key=lambda r: -float(r.get("total_s", 0.0))):
            lines.append(
                f"  {row['path']:<44} {row['count']:>6} "
                f"{_fmt_s(float(row['total_s'])):>9} "
                f"{_fmt_s(float(row['max_s'])):>9}"
            )
        lines.append("")

    _timeline_section(payload, lines)
    lines.append("")

    events: List[Mapping[str, Any]] = list(payload.get("events") or [])
    events.sort(key=lambda r: (r.get("ts") or 0.0))
    _events_section(events, lines)
    return "\n".join(lines)
