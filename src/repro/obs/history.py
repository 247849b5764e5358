"""Bench-history ledger: fold ``BENCH_engine.json`` runs into a JSONL trail.

``BENCH_engine.json`` is overwritten on every benchmark run, so by itself
the repo has no performance *trajectory* — a regression is only visible if
someone happens to diff the file in review.  :func:`append` folds each run
into one compact JSON line in ``BENCH_history.jsonl``, keyed by
``(git_sha, timestamp)`` (idempotent: re-appending the same run is a
no-op), and :func:`compare` flags per-profile speedup regressions between
the two most recent entries beyond a threshold ratio.

CLI: ``python -m repro.obs history append|compare`` (see
:mod:`repro.obs.__main__`); CI appends the bench job's artifact and runs
the compare check so the trajectory stops being empty.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Tuple

#: Default ledger file, sibling to BENCH_engine.json at the repo root.
HISTORY_FILE = "BENCH_history.jsonl"

#: Per-profile speedup keys compared between consecutive ledger entries.
COMPARE_KEYS = ("fault_speedup_packed_vs_naive",)

#: Flag when a speedup falls below this fraction of the previous entry.
#: Generous on purpose: shared CI runners are noisy; the ledger exists to
#: catch step-function regressions, not 5% jitter.
DEFAULT_THRESHOLD = 0.6


def fold_bench(bench: Mapping[str, Any]) -> Dict[str, Any]:
    """One compact ledger record from a full ``BENCH_engine.json`` payload."""
    profiles: Dict[str, Dict[str, Any]] = {}
    for row in bench.get("profiles", []):
        circuit = row.get("circuit")
        if not circuit:
            continue
        entry: Dict[str, Any] = {}
        for key in COMPARE_KEYS:
            if key in row:
                entry[key] = row[key]
        seconds = row.get("seconds") or {}
        entry["fault_seconds"] = {
            backend: timing.get("fault")
            for backend, timing in seconds.items()
            if isinstance(timing, Mapping)
        }
        profiles[circuit] = entry
    gates = {
        "words_gate_speedup": (bench.get("fault_modes") or {}).get(
            "words_gate_speedup"
        ),
        "faults_gate_speedup": (bench.get("fault_parallel") or {}).get(
            "faults_gate_speedup"
        ),
        "atpg_compiled_speedup": ((bench.get("atpg") or {}).get("largest") or {}).get(
            "compiled_speedup"
        ),
        "obs_overhead_pct": ((bench.get("obs") or {}).get("overhead") or {}).get(
            "enabled_overhead_pct"
        ),
    }
    return {
        "git_sha": bench.get("git_sha", "unknown"),
        "timestamp": bench.get("timestamp", "unknown"),
        "bench_schema": bench.get("schema"),
        "python": bench.get("python"),
        "available_cores": bench.get("available_cores"),
        "profiles": profiles,
        "gates": gates,
    }


def load_history(path: str) -> List[Dict[str, Any]]:
    """Read the ledger, tolerating a torn/garbage line (skipped)."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return records
    return records


def append(
    bench_path: str, history_path: str = HISTORY_FILE
) -> Tuple[Dict[str, Any], bool]:
    """Fold one bench artifact into the ledger.

    Returns ``(record, appended)``; ``appended`` is ``False`` when an entry
    with the same ``(git_sha, timestamp)`` key already exists (idempotent —
    a retried CI job cannot duplicate the trajectory).
    """
    with open(bench_path, "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    record = fold_bench(bench)
    key = (record["git_sha"], record["timestamp"])
    for existing in load_history(history_path):
        if (existing.get("git_sha"), existing.get("timestamp")) == key:
            return record, False
    directory = os.path.dirname(os.path.abspath(history_path))
    os.makedirs(directory, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record, True


def compare(
    history: List[Dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Per-profile speedup regressions between the last two ledger entries.

    A regression is a :data:`COMPARE_KEYS` value in the latest entry below
    ``threshold`` times the previous entry's value.  Returns one dict per
    regression: ``{profile, key, previous, latest, ratio}``; empty when the
    ledger has fewer than two entries or nothing regressed.
    """
    if len(history) < 2:
        return []
    previous, latest = history[-2], history[-1]
    regressions: List[Dict[str, Any]] = []
    prev_profiles = previous.get("profiles") or {}
    for circuit, entry in sorted((latest.get("profiles") or {}).items()):
        baseline = prev_profiles.get(circuit)
        if not baseline:
            continue
        for key in COMPARE_KEYS:
            old = baseline.get(key)
            new = entry.get(key)
            if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
                continue
            if old <= 0:
                continue
            ratio = new / old
            if ratio < threshold:
                regressions.append(
                    {
                        "profile": circuit,
                        "key": key,
                        "previous": old,
                        "latest": new,
                        "ratio": ratio,
                    }
                )
    return regressions


def render_compare(
    history: List[Dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[str, List[Dict[str, Any]]]:
    """Human summary of the latest-vs-previous comparison plus regressions."""
    lines: List[str] = []
    if not history:
        return "bench history: empty ledger", []
    latest = history[-1]
    lines.append(
        f"bench history: {len(history)} entr{'y' if len(history) == 1 else 'ies'}; "
        f"latest {latest.get('git_sha', '?')[:12]} @ {latest.get('timestamp', '?')}"
    )
    if len(history) < 2:
        lines.append("no previous entry to compare against")
        return "\n".join(lines), []
    previous = history[-2]
    lines.append(
        f"comparing against {previous.get('git_sha', '?')[:12]} @ "
        f"{previous.get('timestamp', '?')} (threshold ratio {threshold:.2f})"
    )
    regressions = compare(history, threshold=threshold)
    prev_profiles = previous.get("profiles") or {}
    for circuit, entry in sorted((latest.get("profiles") or {}).items()):
        baseline = prev_profiles.get(circuit) or {}
        for key in COMPARE_KEYS:
            old, new = baseline.get(key), entry.get(key)
            if isinstance(old, (int, float)) and isinstance(new, (int, float)) and old > 0:
                lines.append(
                    f"  {circuit:<8} {key:<34} {old:>7.2f}x -> {new:>7.2f}x "
                    f"(ratio {new / old:.2f})"
                )
    if regressions:
        lines.append("REGRESSIONS:")
        for reg in regressions:
            lines.append(
                f"  {reg['profile']} {reg['key']}: {reg['previous']:.2f}x -> "
                f"{reg['latest']:.2f}x (ratio {reg['ratio']:.2f} < {threshold:.2f})"
            )
    else:
        lines.append("no regressions beyond the threshold")
    return "\n".join(lines), regressions
