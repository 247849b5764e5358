"""Core machinery for the project static analyzer.

This module owns everything rule-agnostic: parsing files into
:class:`ModuleInfo` (AST + source lines + suppression map), the
:class:`Finding` record with its stable fingerprint, inline-suppression
semantics, file discovery and the :func:`run_analysis` driver that feeds
every registered rule.

Fingerprints are content-addressed — ``blake2b(rule | relpath |
stripped source line)`` — so a baseline entry survives unrelated edits
that shift line numbers, but is invalidated when the offending line
itself changes.

Inline suppression: a comment ``# repro: allow[R3]`` (or
``allow[R3,R6]``, or ``allow[*]``) on the finding's line or the line
directly above silences the named rules at that site.  Suppressions are
counted and reported, never silently dropped.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import all_rules

#: Inline suppression comment: ``# repro: allow[R1]`` / ``allow[R1,R6]`` / ``allow[*]``.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: Directory names never descended into during file discovery.
SKIP_DIRS = {"__pycache__", ".git", ".repro_cache"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    fingerprint: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def fingerprint_of(rule_id: str, relpath: str, anchor: str) -> str:
    """Stable identity of a finding: rule + file + normalized anchor text."""
    digest = blake2b(
        f"{rule_id}|{relpath}|{anchor}".encode("utf-8", "replace"), digest_size=8
    )
    return digest.hexdigest()


@dataclass
class ModuleInfo:
    """One parsed Python file plus the metadata rules need."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str]
    allow: Dict[int, Set[str]]
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def allows(self, rule_id: str, line: int) -> bool:
        """Whether an inline comment suppresses ``rule_id`` at ``line``.

        The allow comment may sit on the line itself or in the contiguous
        comment block directly above it (multi-line justifications).
        """
        def _match(probe: int) -> bool:
            rules = self.allow.get(probe)
            return bool(rules) and ("*" in rules or rule_id in rules)

        if _match(line):
            return True
        probe = line - 1
        while probe >= 1 and self.line_text(probe).lstrip().startswith("#"):
            if _match(probe):
                return True
            probe -= 1
        return False

    def finding(self, rule_id: str, line: int, message: str) -> Finding:
        anchor = self.line_text(line).strip()
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=line,
            message=message,
            fingerprint=fingerprint_of(rule_id, self.relpath, anchor),
        )

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over the AST (built lazily, cached)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The innermost function/async-function containing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def repro_parts(self) -> Tuple[str, ...]:
        """Path components below the ``repro`` package ('' tuple if outside).

        Fixture trees mirror the package layout (``.../repro/engine/x.py``),
        so path-scoped rules apply identically to real and fixture modules.
        """
        parts = Path(self.relpath).parts
        if "repro" not in parts:
            return ()
        return parts[parts.index("repro") + 1 :]


@dataclass
class AnalysisContext:
    """Run-wide state handed to every rule check."""

    root: Path
    paths: Tuple[Path, ...] = ()

    def project_finding(self, rule_id: str, relpath: str, line: int, message: str) -> Finding:
        return Finding(
            rule=rule_id,
            path=relpath,
            line=line,
            message=message,
            fingerprint=fingerprint_of(rule_id, relpath, message),
        )


def _suppression_map(lines: Sequence[str]) -> Dict[int, Set[str]]:
    allow: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {token.strip() for token in match.group(1).split(",") if token.strip()}
        if rules:
            allow[number] = rules
    return allow


def load_module(path: Path, root: Path) -> Tuple[Optional[ModuleInfo], Optional[Finding]]:
    """Parse one file; a syntax error becomes a ``parse`` finding, not a crash."""
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8", errors="replace")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as err:
        finding = Finding(
            rule="parse",
            path=relpath,
            line=int(err.lineno or 1),
            message=f"file does not parse: {err.msg}",
            fingerprint=fingerprint_of("parse", relpath, err.msg or ""),
        )
        return None, finding
    lines = source.splitlines()
    return (
        ModuleInfo(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=lines,
            allow=_suppression_map(lines),
        ),
        None,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths`` (dirs recursed, sorted, deduped)."""
    seen: Set[Path] = set()
    for base in paths:
        if base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        elif base.suffix == ".py":
            candidates = [base]
        else:
            continue
        for candidate in candidates:
            if any(part in SKIP_DIRS or part.startswith(".") for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "files_checked": self.files_checked,
        }


def run_analysis(paths: Sequence[Path], root: Path) -> AnalysisReport:
    """Run every registered rule over ``paths``; findings sorted by location.

    Importing ``repro.analysis.rules`` here (not at module import) keeps the
    core importable without the rule set, and lets tests register ad-hoc
    rules before a run.
    """
    import repro.analysis.rules  # noqa: F401  (registers the built-in rules)

    ctx = AnalysisContext(root=root, paths=tuple(paths))
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    suppressed: List[Finding] = []

    for path in iter_python_files(paths):
        module, parse_finding = load_module(path, root)
        if parse_finding is not None:
            findings.append(parse_finding)
        if module is not None:
            modules.append(module)

    for entry in all_rules():
        for check in entry.module_checks:
            for module in modules:
                for finding in check(module, ctx):
                    if module.allows(finding.rule, finding.line):
                        suppressed.append(finding)
                    else:
                        findings.append(finding)
        for check in entry.project_checks:
            findings.extend(check(ctx))

    order = lambda f: (f.path, f.line, f.rule)  # noqa: E731
    return AnalysisReport(
        findings=sorted(findings, key=order),
        suppressed=sorted(suppressed, key=order),
        files_checked=len(modules),
    )
