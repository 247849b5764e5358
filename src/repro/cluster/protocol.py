"""Task protocol for the experiment runner's pooled cells.

Everything a worker needs to execute one unit of work lives here, in one
module consumed by every transport (:mod:`repro.cluster.transport`).  The
task kinds:

* ``"cell"`` — one experiment-runner (artifact x benchmark) cell.
* ``"echo"`` — return the task's payload, or raise on request (diagnostics
  and the transports' failure tests).

Tasks are plain picklable dicts with a ``"kind"`` key; :func:`execute_task`
is the single dispatch point every transport calls, so a task produces the
same payload whether it runs in the parent process or in a spawn-pool
worker.  A cell's result is a pure function of its task dict, and the runner
merges cells in fixed cell order, so arrival order never changes a report.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import recorder as obs

#: Key under which a task's captured telemetry snapshot rides in the result
#: payload envelope (see :func:`execute_task` / :func:`unwrap_payload`).
OBS_PAYLOAD_KEY = "__repro_obs__"


def cell_task(cell, seed: int, backend_name: str) -> Dict[str, object]:
    """Encode one experiment-runner cell task."""
    task: Dict[str, object] = {
        "kind": "cell",
        "cell": cell,
        "seed": seed,
        "backend": backend_name,
    }
    if obs.enabled():
        # Ask workers to capture telemetry even if they were spawned before
        # tracing was enabled programmatically (REPRO_TRACE propagates via
        # the environment; obs.enable() does not).
        task["obs"] = True
        if obs.timeline_enabled():
            task["timeline"] = True
    return task


# -- task execution ----------------------------------------------------------
def run_cell(task: Dict[str, object]):
    """Execute a ``"cell"`` task: one experiment-runner cell.

    Imported lazily — the runner sits above the engine layer, and pulling it
    in at module import would create a cycle.
    """
    from repro.engine.backend import default_backend_name, set_default_backend
    from repro.experiments.runner import _run_cell

    backend_name = task["backend"]
    if default_backend_name() != backend_name:
        set_default_backend(backend_name)
    return _run_cell(task["cell"], task["seed"])


def echo(task: Dict[str, object]) -> object:
    """Execute an ``"echo"`` task: return its payload (diagnostics/tests).

    ``fail`` makes the task raise instead — a worker-side failure on demand
    for exercising the inline fallbacks.
    """
    if task.get("fail"):
        raise RuntimeError(f"echo task failed on request: {task['fail']}")
    return task.get("payload")


_EXECUTORS = {
    "cell": run_cell,
    "echo": echo,
}


def execute_task(task: Dict[str, object]):
    """Run one work unit; the single entry point every transport dispatches to.

    When telemetry is on — in this process (``obs.enabled()``) or requested
    by the submitting parent (the task's ``"obs"`` flag) — execution runs
    inside :class:`repro.obs.recorder.task_capture` and the captured
    counters/spans/events ride back with the result in an envelope dict
    (:data:`OBS_PAYLOAD_KEY`).  Transports strip the envelope with
    :func:`unwrap_payload`, which also merges the snapshot into the parent
    recorder exactly once per task id.
    """
    try:
        runner = _EXECUTORS[task["kind"]]
    except KeyError:
        raise ValueError(f"unknown task kind {task.get('kind')!r}") from None
    if not (task.get("obs") or obs.enabled()):
        return runner(task)
    # The submitting parent's timeline request rides the task dict (like the
    # "obs" flag); otherwise the capture inherits the local recorder's tier.
    capture = obs.task_capture(timeline=True if task.get("timeline") else None)
    with capture:
        payload = runner(task)
    return {OBS_PAYLOAD_KEY: capture.snapshot(), "payload": payload}


def unwrap_payload(task_id: object, payload: object) -> object:
    """Strip a telemetry envelope from one result payload.

    Absorbs the captured snapshot into the active recorder — deduped by
    task id, so a re-delivered result can never double-count — and returns
    the bare payload.  Payloads without an envelope (tracing off) pass
    through untouched; envelopes from tracing-enabled workers are stripped
    even when the parent traces nothing (the null recorder drops the
    snapshot).
    """
    if isinstance(payload, dict) and OBS_PAYLOAD_KEY in payload:
        obs.absorb_task(task_id, payload[OBS_PAYLOAD_KEY])
        return payload["payload"]
    return payload
