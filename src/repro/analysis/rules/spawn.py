"""R4 — spawn/pickle safety for pool-submitted callables.

The worker pool's processes are *spawned*: a callable handed to the pool
reaches them by pickle, which breaks on closures, lambdas and
locally-defined functions — and a spawn-only failure is exactly the kind
of latent portability bug a static pass should catch before it ships.
The runner re-runs a cell whose pool call failed in process, so such a
bug costs the pool's speed without changing any result.

Check: the callable handed to ``apply_async`` / ``apply`` / ``map`` /
``imap`` / ``imap_unordered`` / ``starmap`` must be a module-level
function — never a lambda, never a function defined inside another
function.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule

#: Pool-submission method names whose first argument crosses a pickle.
POOL_METHODS = {"apply_async", "apply", "map", "imap", "imap_unordered", "starmap"}


def _nested_function_names(module: ModuleInfo) -> Set[str]:
    """Names of functions defined inside other functions (not importable)."""
    nested: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if module.enclosing_function(node) is not None:
                nested.add(node.name)
    return nested


@rule("R4", "spawn-safety")
def check_spawn_safety(module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
    """Flag pool callables that cannot cross a spawn."""
    nested = _nested_function_names(module)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in POOL_METHODS):
            continue
        if not node.args:
            continue
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            yield module.finding(
                "R4",
                target.lineno,
                f"lambda passed to {func.attr}; it cannot be pickled to a "
                "spawned worker — use a module-level function",
            )
        elif isinstance(target, ast.Name) and target.id in nested:
            yield module.finding(
                "R4",
                target.lineno,
                f"locally-defined function {target.id!r} passed to "
                f"{func.attr}; closures cannot be pickled to a spawned "
                "worker — hoist it to module level",
            )
