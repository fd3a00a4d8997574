"""The repro-lint engine: file discovery, rule execution, reporting.

The rules (:mod:`repro.checkers.asyncsafety`,
:mod:`repro.checkers.hygiene`) visit each Python file's AST.

Suppressions (``# repro-lint: disable=RULE``) are honored per line but
never silent: every suppressed finding is carried in the report's
budget section, and ``python -m repro lint --stats`` prints per-rule
counts plus wall time so analyzer cost and suppression creep are both
trackable across PRs.
"""

from __future__ import annotations

import ast
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checkers.asyncsafety import check_async_safety
from repro.checkers.findings import (
    DirectiveError,
    Finding,
    parse_suppressions,
    split_suppressed,
)
from repro.checkers.hygiene import check_hygiene

#: The file whose presence marks the root of this repository.
_ROOT_MARKER = Path("src/repro/dvm/messages.py")

#: Rule id -> one-line description (the catalog; see docs/STATIC_ANALYSIS.md).
RULES: Dict[str, str] = {
    "ASYNC001": "blocking call inside 'async def'",
    "ASYNC002": "coroutine constructed but never awaited",
    "ASYNC003": "asyncio task handle dropped (fire-and-forget leak)",
    "ASYNC004": "synchronous lock held across 'await'",
    "ASYNC005": "cross-thread event-loop call bypassing *_threadsafe",
    "EXC001": "broad except that swallows the exception",
    "HYG001": "mutable default argument",
    "HYG002": "parameter shadows a builtin",
    "OBS001": "bare print() in library code (use repro.obs.log)",
}

#: Directory names never scanned.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".pytest_cache",
    "build",
    "dist",
    ".venv",
    ".tox",
    "node_modules",
    ".repro-lint-cache",  # left behind by older versions of this analyzer
}


@dataclass
class LintReport:
    """Everything one ``run_lint`` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)  # unparsable files
    files_scanned: int = 0
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts(self) -> "Counter[str]":
        return Counter(finding.rule for finding in self.findings)

    def suppressed_counts(self) -> "Counter[str]":
        return Counter(finding.rule for finding in self.suppressed)

    def stats_rows(self) -> List[Dict[str, object]]:
        """Per-rule rows for the --stats table and BENCH files."""
        active = self.counts()
        budget = self.suppressed_counts()
        rows = []
        for rule in sorted(RULES):
            rows.append(
                {
                    "rule": rule,
                    "description": RULES[rule],
                    "findings": active.get(rule, 0),
                    "suppressed": budget.get(rule, 0),
                }
            )
        return rows


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` under ``paths`` (files accepted verbatim), sorted.

    Skip-list directories (virtualenvs, caches, ``node_modules``) are
    pruned before descent, and symlinked directories are followed at
    most once by resolved identity, so a link cycle (or a link back to
    an ancestor) terminates instead of recursing forever.
    """
    collected = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            collected.add(path)
        elif path.is_dir():
            visited = set()
            try:
                visited.add(path.resolve())
            except OSError:
                continue
            for dirpath, dirnames, filenames in os.walk(
                path, followlinks=True
            ):
                kept = []
                for name in sorted(dirnames):
                    if name in _SKIP_DIRS:
                        continue
                    try:
                        identity = (Path(dirpath) / name).resolve()
                    except OSError:
                        continue
                    if identity in visited:
                        continue  # symlink cycle / already-walked target
                    visited.add(identity)
                    kept.append(name)
                dirnames[:] = kept
                for name in filenames:
                    if name.endswith(".py"):
                        collected.add(Path(dirpath) / name)
    return sorted(collected)


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def find_project_root(paths: Sequence[Path]) -> Optional[Path]:
    """The repo root owning the DVM protocol, if the scan touches it.

    Walks up from each scanned path looking for the directory that
    contains ``src/repro/dvm/messages.py``; paths are reported relative
    to it, and ``verify-static`` runs its project-scope prongs only when
    one is found.
    """
    for path in paths:
        candidate: Optional[Path] = path.resolve()
        while candidate is not None:
            if (candidate / _ROOT_MARKER).is_file():
                return candidate
            candidate = candidate.parent if candidate.parent != candidate else None
    return None


def lint_file(
    path: Path, display: Optional[str] = None
) -> Tuple[List[Finding], List[Finding], Optional[str]]:
    """Lint one file: ``(findings, suppressed, directive_or_parse_error)``.

    Suppressions are parsed *before* the AST rules run; a malformed
    directive is reported alongside the file's findings, never instead
    of them (remaining valid directives on other lines still can't be
    honored -- all-or-nothing keeps a typo from silently disabling a
    different rule than intended).
    """
    name = display or path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        module = ast.parse(source, filename=name)
    except (OSError, SyntaxError, ValueError) as exc:
        return [], [], f"{name}: cannot analyze: {exc}"
    directive_error: Optional[str] = None
    try:
        suppressions = parse_suppressions(source, name)
    except DirectiveError as exc:
        suppressions = {}
        directive_error = str(exc)
    findings = check_async_safety(name, module) + check_hygiene(name, module)
    active, suppressed = split_suppressed(sorted(findings), suppressions)
    return active, suppressed, directive_error


def run_lint(
    paths: Iterable[Path], *, project_root: Optional[Path] = None
) -> LintReport:
    """Run every analyzer over ``paths`` and return the full report."""
    started = time.perf_counter()
    report = LintReport()
    targets = [Path(p) for p in paths]
    root = project_root or find_project_root(targets)
    for path in iter_python_files(targets):
        active, suppressed, error = lint_file(path, _display_path(path, root))
        report.files_scanned += 1
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        if error is not None:
            report.errors.append(error)
    report.findings.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report
