"""Project-specific static analysis.

``python -m repro.analysis [--format human|json] [--baseline FILE]
[paths...]`` runs five AST rules encoding the invariants the dynamic
parity suites can only spot-check:

* **R1 determinism** — no unseeded RNGs, wall-clock reads or set-order
  iteration in result-bearing modules;
* **R3 envvar registry** — every ``REPRO_*`` read resolves to a
  declaration in :mod:`repro.envvars`; the README table must match;
* **R4 spawn safety** — pool-submitted callables must be module-level
  and importable under spawn;
* **R5 obs grammar** — counters/spans must parse and be declared in
  :mod:`repro.obs.manifest`;
* **R6 silent except** — broad handlers re-raise, emit ``obs.event``,
  or carry a documented suppression.

The dynamic half of the contract is the parity and golden-report suites:
the packed engine and its references agree bit for bit, and the runner's
pooled cells merge in fixed cell order, so the report is byte-identical to
a serial run.
"""

from repro.analysis.core import (
    AnalysisContext,
    AnalysisReport,
    Finding,
    ModuleInfo,
    run_analysis,
)
from repro.analysis.registry import RULES, all_rules, project_rule, rule

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "RULES",
    "all_rules",
    "project_rule",
    "rule",
    "run_analysis",
]
