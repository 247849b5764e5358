"""R4 — spawn/pickle safety for cluster task handlers and pool functions.

The ``mp`` transport's pool workers are *spawned* processes: a task
handler reaches them through the module-level dispatch table
(``execute_task`` looks the kind up by name) and pool-submitted callables
reach them by pickle.  Both break on closures, lambdas and
locally-defined functions — and a spawn-only failure is exactly the kind
of latent portability bug a static pass should catch before it ships.

Checks:

* values of any module-level ``*_EXECUTORS`` dict must be module-level
  function names (the task-dispatch table is an import surface);
* the callable handed to ``apply_async`` / ``map`` / ``imap`` /
  ``imap_unordered`` / ``starmap`` must be a module-level function —
  never a lambda, never a function defined inside another function.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule

#: Pool-submission method names whose first argument crosses a pickle.
POOL_METHODS = {"apply_async", "apply", "map", "imap", "imap_unordered", "starmap"}


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names importable from the module: top-level defs, imports, classes."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


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
    """Flag task handlers / pool callables that cannot cross a spawn."""
    top_level = _module_level_names(module.tree)
    nested = _nested_function_names(module)

    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        is_executors = any(
            isinstance(target, ast.Name) and target.id.endswith("_EXECUTORS")
            for target in node.targets
        )
        if not is_executors or not isinstance(node.value, ast.Dict):
            continue
        for value in node.value.values:
            if isinstance(value, ast.Lambda):
                yield module.finding(
                    "R4",
                    value.lineno,
                    "executor-table entry is a lambda; spawned workers import "
                    "handlers by name — use a module-level function",
                )
            elif isinstance(value, ast.Name):
                if value.id not in top_level:
                    yield module.finding(
                        "R4",
                        value.lineno,
                        f"executor-table entry {value.id!r} is not a "
                        "module-level name; spawned workers cannot import it",
                    )
            elif not isinstance(value, ast.Attribute):
                yield module.finding(
                    "R4",
                    value.lineno,
                    "executor-table entry is a computed value (closure "
                    "factory?); spawned workers import handlers by name — "
                    "use a module-level function",
                )

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
