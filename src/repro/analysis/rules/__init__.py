"""Built-in rules: importing this package registers R1, R3, R5 and R6.

Each module calls :func:`repro.analysis.registry.rule` (or
``project_rule``) at import time; the registry keeps them in id order.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    determinism,
    envvars,
    obs_counters,
    silent_except,
)
