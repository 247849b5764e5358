"""Declared counter and span names: the telemetry grammar, in one place.

Every counter the codebase emits must be declared here — either as an exact
name in :data:`COUNTERS` or under a dynamic prefix in
:data:`COUNTER_PREFIXES` (for families like ``podem.status.<status>`` whose
tail is data-dependent).  The static analyzer's obs-counter rule (R5 in
``repro.analysis``) checks every literal ``counter(...)`` call and every
``add_counters(..., prefix=...)`` prefix against this manifest, and the
counter-parity suite sources its scheduling-invariant key set from
:data:`DETERMINISTIC` — so a new counter cannot ship without a name that
parses, a doc line, and a decision about whether it must be
backend invariant.

Grammar: ``<subsystem>.<dotted_lowercase_path>`` where the subsystem is one
of ``fault_sim``, ``podem``, ``runner`` or ``obs``.  Span paths
are ``/``-separated and start with a declared root (``logic_sim``,
``fault_sim``, ``atpg``, ``runner``).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable

#: Regex every counter name (declared or emitted) must match.
COUNTER_GRAMMAR = re.compile(r"^(fault_sim|podem|runner|obs)\.[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Regex every span path must match (first segment is the root; later
#: segments may carry circuit names, hence the broader character class).
SPAN_GRAMMAR = re.compile(r"^(logic_sim|fault_sim|atpg|runner)(/[A-Za-z0-9_.\-]+)+$")

#: Every exact counter name the codebase may emit, with a doc line each.
COUNTERS: Dict[str, str] = {
    "fault_sim.blocks": "pattern blocks processed (scheduling-dependent).",
    "fault_sim.cone_evaluations": "fault cones simulated against a block.",
    "fault_sim.dropped_block_evaluations": (
        "cone evaluations skipped by fault dropping (scheduling-dependent)."
    ),
    "fault_sim.fault_words": (
        "fault words packed by the fault-parallel kernel (64 lanes each)."
    ),
    "fault_sim.runs": "complete fault-simulation runs.",
    "fault_sim.patterns": "test patterns graded, summed over runs.",
    "fault_sim.faults": "faults graded (detected + undetected).",
    "fault_sim.detected": "faults detected at least once.",
    "podem.faults": "faults handed to the PODEM search.",
    "podem.backtracks": "PODEM decision backtracks.",
    "podem.decisions": "PODEM PI decisions (including retried ones).",
    "obs.events_dropped": "telemetry events discarded at the ring-buffer cap.",
    "obs.intervals_dropped": (
        "timeline span intervals discarded at the ring-buffer cap "
        "(MAX_INTERVALS); nonzero flips the metrics artifact's `truncated` "
        "flag."
    ),
}

#: Dynamic counter families: any name starting with one of these prefixes is
#: declared, because the tail is data-dependent (e.g. a PODEM result status).
COUNTER_PREFIXES: Dict[str, str] = {
    "podem.status.": "per-status PODEM outcome tallies (detected/untestable/aborted).",
    "fault_sim.": "fault-simulator stat dicts forwarded via add_counters(prefix=...).",
}

#: The scheduling-invariant subset: these must sum to identical values on
#: both backends (naive/packed).  The counter-parity suite (tests/test_obs.py)
#: compares exactly this set.
DETERMINISTIC = frozenset(
    {
        "fault_sim.cone_evaluations",
        "fault_sim.runs",
        "fault_sim.patterns",
        "fault_sim.faults",
        "fault_sim.detected",
        "podem.faults",
        "podem.backtracks",
        "podem.decisions",
    }
)

#: Scheduling-invariant keys in the stable order the parity suite reports.
PARITY_KEYS = tuple(sorted(DETERMINISTIC))


def is_declared(name: str) -> bool:
    """Whether ``name`` is a declared counter (exact or under a prefix)."""
    if name in COUNTERS:
        return True
    return any(name.startswith(prefix) for prefix in COUNTER_PREFIXES)


def validate() -> Iterable[str]:
    """Yield a problem string per manifest entry violating the grammar."""
    for name in COUNTERS:
        if not COUNTER_GRAMMAR.match(name):
            yield f"declared counter {name!r} violates the counter grammar"
    for prefix in COUNTER_PREFIXES:
        # A prefix is valid when some completed name under it would parse.
        if not COUNTER_GRAMMAR.match(prefix + "x"):
            yield f"declared prefix {prefix!r} violates the counter grammar"
    for name in DETERMINISTIC:
        if not is_declared(name):
            yield f"deterministic counter {name!r} is not declared"
