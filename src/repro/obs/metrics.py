"""Machine-readable metrics artifacts from the active telemetry recorder.

:func:`write_metrics` serialises the active recorder's snapshot to a JSON
file — the roofline input the ROADMAP asks for.  The path comes from an
explicit ``--metrics PATH`` flag or the ``REPRO_METRICS`` environment
variable (:func:`resolve_metrics_path`).

Schema (``"schema": 4``)::

    {
      "schema": 4,
      "enabled": true,              # was tracing on when written?
      "truncated": false,           # did a ring buffer drop events/intervals?
      "counters": {"fault_sim.cone_evaluations": 123, ...},
      "spans": [                    # sorted by path
        {"path": "fault_sim/b12/lanes/grade",
         "count": 4, "total_s": 1.25, "max_s": 0.42},
        ...
      ],
      "events": [{"ts": ..., "kind": ..., ...}, ...],
      "intervals": [                # timeline tier (REPRO_TIMELINE/--trace-out)
        {"path": ..., "start_s": ..., "dur_s": ..., "pid": ...},
        ...
      ],
      "clock": {"wall_anchor_s": ..., "pid": ...},
      "meta": {                     # caller-provided context, plus:
        "env": {"REPRO_TRACE": "1", ...}   # every *set* REPRO_* knob
      }
    }

Schema history: 1 lacked ``truncated``/``intervals``/``clock`` and the
``meta.env`` provenance snapshot.  The ``env`` snapshot makes a metrics
file self-describing — which knobs shaped the run rides with the run — and
``truncated`` surfaces the ``obs.events_dropped`` / ``obs.intervals_dropped``
ring-buffer counters so a capped artifact cannot masquerade as complete.
2 also carried a ``worker`` label on every interval and on ``clock``; no
process set one, so 3 dropped it and timeline tracks key on the pid alone.
3 also stamped the absorbing task id on intervals merged in from worker
processes, and the runner's ``meta`` carried its ``jobs`` count; the runner
has no worker processes any more, so 4 has neither.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Optional

from repro import envvars
from repro.obs import recorder

METRICS_ENV_VAR = envvars.METRICS.name
METRICS_SCHEMA = 4


def resolve_metrics_path(explicit: Optional[str] = None) -> Optional[str]:
    """Explicit path if given, else ``REPRO_METRICS``, else ``None``."""
    if explicit:
        return explicit
    return envvars.METRICS.read()


def metrics_payload(meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    snap = recorder.snapshot()
    spans = [
        {"path": path, "count": row[0], "total_s": row[1], "max_s": row[2]}
        for path, row in sorted(snap["spans"].items())
    ]
    counters = dict(sorted(snap["counters"].items()))
    meta_out: Dict[str, Any] = dict(meta) if meta else {}
    meta_out["env"] = envvars.env_snapshot()
    payload: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "enabled": recorder.enabled(),
        "truncated": bool(
            counters.get("obs.events_dropped")
            or counters.get("obs.intervals_dropped")
        ),
        "counters": counters,
        "spans": spans,
        "events": snap["events"],
        "intervals": snap.get("intervals", []),
        "clock": snap.get("clock", {}),
        "meta": meta_out,
    }
    return payload


def write_metrics(
    path: str, meta: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Write the metrics artifact to ``path``; returns the payload."""
    payload = metrics_payload(meta)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def maybe_write_metrics(
    explicit: Optional[str] = None, meta: Optional[Mapping[str, Any]] = None
) -> Optional[str]:
    """Write the artifact if a path resolves; returns the path written."""
    path = resolve_metrics_path(explicit)
    if path is None:
        return None
    write_metrics(path, meta)
    return path
