"""R6 — no silent broad exception handlers.

A bare ``except:`` or ``except Exception:`` that swallows the error is
how runs turn into quietly-wrong answers: the
failure evidence evaporates exactly when it is needed.  Inside
``src/repro`` every broad handler must do one of:

* **re-raise** (possibly after cleanup/annotation);
* **record the failure** through telemetry (``obs.event(...)``), so the
  run's event log and ``python -m repro.obs report`` still see it;
* carry an explicit inline suppression — ``# repro: allow[R6] <why>`` —
  turning the decision to swallow into a reviewed, documented one.

Narrow handlers (``except OSError:`` etc.) are out of scope: catching a
specific expected failure is normal control flow.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule

#: Exception names considered "broad": they catch effectively everything.
BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    if isinstance(kind, ast.Name):
        return kind.id in BROAD_NAMES
    if isinstance(kind, ast.Tuple):
        return any(
            isinstance(item, ast.Name) and item.id in BROAD_NAMES
            for item in kind.elts
        )
    return False


def _handles_visibly(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises or records the failure."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name == "event":
                return True
    return False


@rule("R6", "silent-except")
def check_silent_except(module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
    """Flag broad exception handlers that swallow the failure silently."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _handles_visibly(node):
            continue
        what = "bare except" if node.type is None else "broad except"
        yield module.finding(
            "R6",
            node.lineno,
            f"{what} swallows the failure: re-raise, record it via "
            "obs.event(...), or document the suppression with "
            "'# repro: allow[R6] <why>'",
        )
