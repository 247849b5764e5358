"""R2 — tail-mask enforcement for fault-word consumers.

The fault-parallel grading kernel packs 64 faults per word, one bit-lane
each, so the last fault word of a run usually has unpopulated lanes.  A
detection word consumed without
:func:`~repro.engine.fault.fault_lane_mask` scatters tail-lane garbage
onto faults that do not exist — at exactly one fault-count residue, which
is why the dynamic suites can miss it.

Functions that do fault-word lane arithmetic (reference
``FAULT_WORD_LANES`` while holding a fault-list parameter) must therefore
apply ``fault_lane_mask``.  Deleting the ``fault_lane_mask`` application
from ``packed_first_detects_faults`` makes this rule fire; the fixture
corpus carries a firing and a quiet case.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import AnalysisContext, Finding, ModuleInfo
from repro.analysis.registry import rule

#: Parameter names that mark a function as grading a packed fault list
#: (the fault-parallel kernel's signature family).
FAULT_LIST_PARAMS = {"sites", "fault_sites", "faults", "stuck_values"}


def _names_in(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


@rule("R2", "tail-mask")
def check_fault_lane_mask(module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
    """Flag fault-word lane arithmetic that can leak unpopulated tail lanes."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {
            arg.arg
            for arg in list(node.args.args)
            + list(node.args.posonlyargs)
            + list(node.args.kwonlyargs)
        }
        names = _names_in(node)
        if (
            params & FAULT_LIST_PARAMS
            and "FAULT_WORD_LANES" in names
            and "fault_lane_mask" not in names
        ):
            yield module.finding(
                "R2",
                node.lineno,
                f"function {node.name} packs faults into lane words "
                "(FAULT_WORD_LANES) without applying fault_lane_mask: "
                "unpopulated tail lanes of the last fault word scatter "
                "detections onto nonexistent faults",
            )
