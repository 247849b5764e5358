"""repro.obs — dependency-free telemetry: counters, spans, event log.

Off by default and near-free when off: a module-level no-op recorder takes
every call until ``REPRO_TRACE=1`` or :func:`enable` swaps in a real one.
See :mod:`repro.obs.recorder` for the primitives and :mod:`repro.obs.metrics` for the JSON
artifact written by ``--metrics PATH`` / ``REPRO_METRICS``.
"""

from repro.obs.metrics import (
    METRICS_ENV_VAR,
    METRICS_SCHEMA,
    maybe_write_metrics,
    metrics_payload,
    resolve_metrics_path,
    write_metrics,
)
from repro.obs.recorder import (
    MAX_EVENTS,
    MAX_INTERVALS,
    NullRecorder,
    Recorder,
    TIMELINE_ENV_VAR,
    TRACE_ENV_VAR,
    active,
    add_counters,
    counter,
    disable,
    enable,
    enable_timeline,
    enabled,
    event,
    reset,
    snapshot,
    span,
    timeline_enabled,
)

__all__ = [
    "MAX_EVENTS",
    "MAX_INTERVALS",
    "METRICS_ENV_VAR",
    "METRICS_SCHEMA",
    "NullRecorder",
    "Recorder",
    "TIMELINE_ENV_VAR",
    "TRACE_ENV_VAR",
    "active",
    "add_counters",
    "counter",
    "disable",
    "enable",
    "enable_timeline",
    "enabled",
    "event",
    "maybe_write_metrics",
    "metrics_payload",
    "reset",
    "resolve_metrics_path",
    "snapshot",
    "span",
    "timeline_enabled",
    "write_metrics",
]
