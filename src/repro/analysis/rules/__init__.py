"""Built-in rules: importing this package registers R1 and R3–R6.

Each module calls :func:`repro.analysis.registry.rule` (or
``project_rule``) at import time; the registry keeps them in id order.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    determinism,
    envvars,
    obs_counters,
    silent_except,
    spawn,
)
