"""R5 — telemetry name grammar and the counters manifest.

Counter parity across engines is only checkable when
both sides emit the *same names*; a typo'd counter silently becomes a new
key and the parity suite compares ``None == None``.  So every emitted
name must be declared in :mod:`repro.obs.manifest` and parse under the
counter grammar ``(fault_sim|podem|runner|obs).<path>``.

Checked emission shapes:

* ``counter("name")`` / ``obs.counter("name", n)`` with a literal name;
* f-string counters — the literal head must sit under a declared
  dynamic prefix (e.g. ``f"podem.status.{status}"``);
* ``add_counters(..., prefix="p.")`` — the prefix must be a declared
  dynamic prefix;
* dict literals passed to ``add_counters`` — each literal key is
  checked like a ``counter(...)`` name;
* ``span("a/b")`` paths — literal or f-string head must start from a
  declared span root.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule
from repro.obs import manifest

#: First path segment every span must start from.
SPAN_ROOTS = ("logic_sim", "fault_sim", "atpg", "runner")


def _callee_attr(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _literal_head(node: ast.AST) -> Optional[str]:
    """The literal text of a Constant str, or the leading constant of an
    f-string; ``None`` for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _is_exact(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant)


def _check_counter_name(module: ModuleInfo, node: ast.AST) -> Iterator[Finding]:
    head = _literal_head(node)
    if head is None:
        return
    if _is_exact(node):
        if not manifest.COUNTER_GRAMMAR.match(head):
            yield module.finding(
                "R5",
                node.lineno,
                f"counter name {head!r} violates the grammar "
                "(fault_sim|podem|runner|obs).<dotted_path>",
            )
        elif not manifest.is_declared(head):
            yield module.finding(
                "R5",
                node.lineno,
                f"counter {head!r} is not declared in repro.obs.manifest; "
                "add it to COUNTERS with a doc line",
            )
    else:
        # f-string: the constant head must sit under a declared dynamic prefix.
        if not any(head.startswith(p) for p in manifest.COUNTER_PREFIXES):
            yield module.finding(
                "R5",
                node.lineno,
                f"dynamic counter head {head!r} is not under any declared "
                "prefix; add the family to manifest.COUNTER_PREFIXES",
            )


@rule("R5", "obs-grammar")
def check_obs_names(module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
    """Flag telemetry emissions whose names escape the declared manifest."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee_attr(node)
        if callee == "counter" and node.args:
            yield from _check_counter_name(module, node.args[0])
        elif callee == "add_counters":
            for kw in node.keywords:
                if kw.arg == "prefix":
                    prefix = _literal_head(kw.value)
                    if prefix is not None and prefix not in manifest.COUNTER_PREFIXES:
                        yield module.finding(
                            "R5",
                            kw.value.lineno,
                            f"add_counters prefix {prefix!r} is not a declared "
                            "dynamic prefix in repro.obs.manifest",
                        )
            if node.args and isinstance(node.args[0], ast.Dict):
                has_prefix = any(kw.arg == "prefix" for kw in node.keywords)
                if not has_prefix:
                    for key in node.args[0].keys:
                        if key is not None:
                            yield from _check_counter_name(module, key)
        elif callee == "span" and node.args:
            head = _literal_head(node.args[0])
            if head is None:
                continue
            if _is_exact(node.args[0]):
                if not manifest.SPAN_GRAMMAR.match(head):
                    yield module.finding(
                        "R5",
                        node.args[0].lineno,
                        f"span path {head!r} violates the grammar "
                        f"({'|'.join(SPAN_ROOTS)})/<segments>",
                    )
            else:
                root = head.split("/", 1)[0]
                if root not in SPAN_ROOTS:
                    yield module.finding(
                        "R5",
                        node.args[0].lineno,
                        f"span path starts at undeclared root {root!r}; "
                        f"declared roots: {', '.join(SPAN_ROOTS)}",
                    )
