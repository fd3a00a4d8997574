"""The ``repro lint`` engine: one pass, one report.

Each Python file under the given paths is parsed once; the tree feeds
the per-file rules (:mod:`repro.checkers.hygiene`) and the file's
:class:`~repro.checkers.callgraph.ModuleSummary`, and the summaries of
the whole scan feed the call-graph rules (:mod:`repro.checkers.callgraph`).
Every file is analyzed on every run: the run takes about a second on
``src/``, so there is no cache.
"""

from __future__ import annotations

import ast
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.checkers.callgraph import (
    CallGraph,
    module_name_for,
    package_root,
    summarize_module,
)
from repro.checkers.findings import Finding
from repro.checkers.hygiene import check_hygiene

#: The file whose presence marks the root of this repository.
_ROOT_MARKER = Path("src/repro/dvm/messages.py")

#: Rule id -> one-line description (see docs/STATIC_ANALYSIS.md, which
#: records the defect each rule caught).
RULES: Dict[str, str] = {
    "ASYNC002": "coroutine constructed but never awaited",
    "ASYNC003": "asyncio task handle with no sink (dropped or never read)",
    "ASYNC009": "blocking call on the event loop, directly or via sync helpers",
    "EXC001": "broad except that swallows the exception",
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
}


@dataclass
class LintReport:
    """Everything one ``run_lint`` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)  # unparsable files
    files_scanned: int = 0
    functions_indexed: int = 0
    call_edges: int = 0
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def stats_rows(self) -> List[Dict[str, object]]:
        """Per-rule rows for the --stats table."""
        counts = Counter(finding.rule for finding in self.findings)
        return [
            {
                "rule": rule,
                "description": description,
                "findings": counts.get(rule, 0),
            }
            for rule, description in sorted(RULES.items())
        ]


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
            visited = {path.resolve()}
            for dirpath, dirnames, filenames in os.walk(
                path, followlinks=True
            ):
                kept = []
                for name in sorted(dirnames):
                    identity = (Path(dirpath) / name).resolve()
                    if name in _SKIP_DIRS or identity in visited:
                        continue  # skip-list, or a cycle / walked target
                    visited.add(identity)
                    kept.append(name)
                dirnames[:] = kept
                collected.update(
                    Path(dirpath) / name
                    for name in filenames
                    if name.endswith(".py")
                )
    return sorted(collected)


def find_project_root(paths: Sequence[Path]) -> Optional[Path]:
    """The repo root owning the DVM protocol, if the scan touches it.

    Walks up from each scanned path looking for the directory that
    contains ``src/repro/dvm/messages.py``; findings are reported
    relative to it.
    """
    for path in paths:
        for candidate in (path.resolve(), *path.resolve().parents):
            if (candidate / _ROOT_MARKER).is_file():
                return candidate
    return None


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def run_lint(paths: Iterable[Path]) -> LintReport:
    """Run every rule over ``paths`` and return the full report."""
    started = time.perf_counter()
    report = LintReport()
    targets = [Path(p) for p in paths]
    root = find_project_root(targets)
    naming_roots = []
    for target in targets:
        base = package_root(target if target.is_dir() else target.parent)
        if base.resolve() not in naming_roots:
            naming_roots.append(base.resolve())
    summaries = []
    for path in iter_python_files(targets):
        display = _display_path(path, root)
        report.files_scanned += 1
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), display)
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append(f"{display}: cannot analyze: {exc}")
            continue
        report.findings.extend(check_hygiene(display, tree))
        summaries.append(
            summarize_module(
                tree,
                display,
                module_name_for(path, naming_roots),
                path.name == "__init__.py",
            )
        )
    graph = CallGraph(summaries)
    report.findings.extend(graph.check())
    report.findings.sort()
    report.functions_indexed = len(graph.functions)
    report.call_edges = graph.call_edges
    report.elapsed_seconds = time.perf_counter() - started
    return report
