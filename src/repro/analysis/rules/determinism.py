"""R1 — determinism lint for result-bearing modules.

The paper's reproduction contract is bit-identical output from run to run
and machine to machine.  Three static patterns break that contract
and all have slipped into similar codebases before:

* drawing from the **unseeded global RNG** (``random.shuffle`` /
  ``np.random.rand`` ...) instead of a seeded ``random.Random`` /
  ``np.random.default_rng`` instance;
* letting **wall-clock or entropy sources** (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4``) flow into result
  payloads or their order;
* **iterating a set** into ordered protocol output — hash order is
  process-dependent under ``PYTHONHASHSEED``.

The rule is scoped to the modules whose output is part of the determinism
contract (engine, cubes, ATPG, fill/ordering/power pipeline, circuit
generation, and the experiment runner).
Telemetry and forensic timestamps live outside that scope on purpose:
``repro.obs`` event timestamps never feed result payloads.

``time.perf_counter`` / ``time.monotonic`` are allowed — timing
measurements are reported as measurements, not merged into results.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule

#: Subpackages of ``repro`` whose modules carry the determinism contract.
CRITICAL_PACKAGES = {
    "engine",
    "cubes",
    "atpg",
    "filling",
    "orderings",
    "circuit",
    "power",
    "core",
}

#: Individual modules outside those packages that also carry it.
CRITICAL_MODULES = {
    ("experiments", "runner.py"),
}

#: ``random.<attr>`` uses that are fine: seeded/explicit instances.
ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}

#: ``np.random.<attr>`` uses that are fine: explicit generator construction.
ALLOWED_NP_RANDOM_ATTRS = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

#: ``time.<attr>`` reads that are wall-clock (monotonic clocks are fine).
WALL_CLOCK_TIME_ATTRS = {"time", "time_ns"}

#: ``datetime``/``date`` constructors that read the wall clock.
WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: ``uuid.<attr>`` constructors drawing entropy or host state.
ENTROPY_UUID_ATTRS = {"uuid1", "uuid4"}


def is_critical(module: ModuleInfo) -> bool:
    parts = module.repro_parts()
    if not parts:
        return False
    if parts[0] in CRITICAL_PACKAGES:
        return True
    return tuple(parts[-2:]) in CRITICAL_MODULES


def _dotted(node: ast.AST) -> str:
    """``np.random.rand`` → ``"np.random.rand"`` ('' for non-name chains)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


@rule("R1", "determinism")
def check_determinism(module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
    """Flag nondeterminism sources inside determinism-contract modules."""
    if not is_critical(module):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Attribute, ast.Call)):
            if isinstance(node, ast.Attribute):
                # Skip attributes that are the callee of a Call — the Call
                # node reports them; bare references still get caught.
                parent = module.parents.get(node)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue
            target = node.func if isinstance(node, ast.Call) else node
            dotted = _dotted(target)
            if not dotted:
                continue
            head, _, tail = dotted.partition(".")
            if head == "random" and tail and "." not in tail:
                if tail not in ALLOWED_RANDOM_ATTRS:
                    yield module.finding(
                        "R1",
                        node.lineno,
                        f"global-state RNG call random.{tail} in a deterministic "
                        "module; use a seeded random.Random instance",
                    )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                attr = dotted.rsplit(".", 1)[-1]
                if attr not in ALLOWED_NP_RANDOM_ATTRS:
                    yield module.finding(
                        "R1",
                        node.lineno,
                        f"global-state RNG call {dotted} in a deterministic "
                        "module; use np.random.default_rng(seed)",
                    )
            elif head == "time" and tail in WALL_CLOCK_TIME_ATTRS:
                yield module.finding(
                    "R1",
                    node.lineno,
                    f"wall-clock read {dotted} in a deterministic module; use "
                    "time.perf_counter/monotonic for timing, or keep clocks "
                    "out of result payloads",
                )
            elif tail and dotted.rsplit(".", 1)[-1] in WALL_CLOCK_DATETIME_ATTRS and (
                head in {"datetime", "date"} or ".datetime." in f".{dotted}."
            ):
                yield module.finding(
                    "R1",
                    node.lineno,
                    f"wall-clock read {dotted} in a deterministic module",
                )
            elif head == "os" and tail == "urandom":
                yield module.finding(
                    "R1",
                    node.lineno,
                    "entropy read os.urandom in a deterministic module; derive "
                    "bits from a seeded np.random.default_rng or a content "
                    "hash (hashlib.blake2b) instead",
                )
            elif head == "uuid" and tail in ENTROPY_UUID_ATTRS:
                yield module.finding(
                    "R1",
                    node.lineno,
                    f"entropy-derived id {dotted} in a deterministic module; "
                    "use a content digest for stable identity",
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            iter_expr = node.iter
            if _is_set_expr(iter_expr):
                yield module.finding(
                    "R1",
                    getattr(node, "lineno", iter_expr.lineno),
                    "iteration over a set feeds ordered output and depends on "
                    "hash order; iterate sorted(...) or a list instead",
                )
