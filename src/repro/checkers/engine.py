"""The repro-lint engine: file discovery, rule execution, reporting.

The rules (:mod:`repro.checkers.asyncsafety`,
:mod:`repro.checkers.hygiene`) visit each Python file's AST.

Suppressions (``# repro-lint: disable=RULE``) are honored per line but
never silent: every suppressed finding is carried in the report's
budget section, and ``python -m repro lint --stats`` prints per-rule
counts plus wall time so analyzer cost and suppression creep are both
trackable across PRs.

Per-file results are memoized in ``.repro-lint-cache/`` keyed on a
content hash salted with the checker sources themselves, so a warm
full-tree run re-analyzes nothing and stays byte-identical to a cold
one; ``--jobs N`` fans cold files out over multiprocessing workers.
"""

from __future__ import annotations

import ast
import hashlib
import json
import multiprocessing
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
    ".repro-lint-cache",
}

#: Finding-cache directory (created next to the project root).
CACHE_DIR_NAME = ".repro-lint-cache"


@dataclass
class LintReport:
    """Everything one ``run_lint`` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)  # unparsable files
    files_scanned: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0

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


# -- per-file finding cache -------------------------------------------------
#
# Key = sha256(checker-source salt + display path + file content), so a
# cache entry is invalidated by editing the file, moving it, or
# changing any checker module (rule logic, catalog, suppressions).
# Entries store the exact lint_file() result; replaying them is
# byte-identical to re-analyzing.

_SALT_MODULES = (
    "repro.checkers.asyncsafety",
    "repro.checkers.hygiene",
    "repro.checkers.findings",
    "repro.checkers.engine",
)
_salt_cache: Optional[str] = None


def _cache_salt() -> str:
    global _salt_cache
    if _salt_cache is None:
        import importlib

        digest = hashlib.sha256()
        for name in _SALT_MODULES:
            module = importlib.import_module(name)
            module_file = getattr(module, "__file__", None)
            if module_file:
                digest.update(Path(module_file).read_bytes())
        _salt_cache = digest.hexdigest()[:16]
    return _salt_cache


def cache_key(content: bytes, display: str) -> str:
    digest = hashlib.sha256()
    digest.update(_cache_salt().encode("ascii"))
    digest.update(display.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(content)
    return digest.hexdigest()


def _finding_to_row(finding: Finding) -> List[object]:
    return [
        finding.path,
        finding.line,
        finding.col,
        finding.rule,
        finding.message,
        finding.hint,
    ]


def _finding_from_row(row: List[object]) -> Finding:
    return Finding(
        path=str(row[0]),
        line=int(row[1]),  # type: ignore[arg-type]
        col=int(row[2]),  # type: ignore[arg-type]
        rule=str(row[3]),
        message=str(row[4]),
        hint=str(row[5]),
    )


def _cache_load(
    cache_dir: Path, key: str
) -> Optional[Tuple[List[Finding], List[Finding], Optional[str]]]:
    try:
        payload = json.loads(
            (cache_dir / f"{key}.json").read_text(encoding="utf-8")
        )
        active = [_finding_from_row(row) for row in payload["findings"]]
        suppressed = [
            _finding_from_row(row) for row in payload["suppressed"]
        ]
        error = payload["error"]
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None  # missing or corrupt entry: just re-analyze
    return active, suppressed, error if error is None else str(error)


def _cache_store(
    cache_dir: Path,
    key: str,
    active: List[Finding],
    suppressed: List[Finding],
    error: Optional[str],
) -> None:
    payload = {
        "findings": [_finding_to_row(f) for f in active],
        "suppressed": [_finding_to_row(f) for f in suppressed],
        "error": error,
    }
    target = cache_dir / f"{key}.json"
    scratch = cache_dir / f".{key}.{os.getpid()}.tmp"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        scratch.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(scratch, target)  # atomic vs concurrent runs
    except OSError:
        pass  # read-only checkout: caching is best-effort


def _lint_worker(
    path_str: str, display: str
) -> Tuple[List[Finding], List[Finding], Optional[str]]:
    """Top-level worker so multiprocessing can pickle it."""
    return lint_file(Path(path_str), display)


def run_lint(
    paths: Iterable[Path],
    *,
    project_root: Optional[Path] = None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> LintReport:
    """Run every analyzer over ``paths`` and return the full report."""
    started = time.perf_counter()
    report = LintReport()
    targets = [Path(p) for p in paths]
    root = project_root or find_project_root(targets)
    cache_root = cache_dir or (root or Path(".")) / CACHE_DIR_NAME

    pending: List[Tuple[Path, str, Optional[str]]] = []
    for path in iter_python_files(targets):
        display = _display_path(path, root)
        key: Optional[str] = None
        if cache:
            try:
                key = cache_key(path.read_bytes(), display)
            except OSError:
                key = None
            if key is not None:
                entry = _cache_load(cache_root, key)
                if entry is not None:
                    active, suppressed, error = entry
                    report.cache_hits += 1
                    report.files_scanned += 1
                    report.findings.extend(active)
                    report.suppressed.extend(suppressed)
                    if error is not None:
                        report.errors.append(error)
                    continue
        pending.append((path, display, key))

    if jobs > 1 and len(pending) > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.starmap(
                _lint_worker,
                [(str(path), display) for path, display, _ in pending],
            )
    else:
        results = [
            lint_file(path, display) for path, display, _ in pending
        ]
    for (path, display, key), (active, suppressed, error) in zip(
        pending, results
    ):
        report.files_scanned += 1
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        if error is not None:
            report.errors.append(error)
        if cache and key is not None:
            _cache_store(cache_root, key, active, suppressed, error)

    report.findings.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report
