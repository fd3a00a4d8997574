"""Tier-2/3 semantic verification: ``python -m repro verify-static``.

Tier 1 (``repro lint``) is syntactic and per-file; this tier reasons
about *behavior*:

* :mod:`repro.checkers.fsm` extracts the session FSM actually
  implemented by ``runtime/connection.py`` and diffs it against the
  declared ``SESSION_TRANSITIONS`` table (FSM004);
* :mod:`repro.checkers.modelcheck` exhaustively explores the
  two-peer-session product of the declared table (FSM001/FSM002) and
  the launcher x worker fleet lifecycle product (FSM005/FSM006) for
  deadlocks and dead states;
* :mod:`repro.checkers.raceflow` runs flow-sensitive cross-``await``
  race detection over every coroutine in the scanned tree
  (ASYNC006-ASYNC008);
* :mod:`repro.checkers.callgraph` builds a module-resolving call graph
  over the whole scanned tree and propagates blocking/proxy-await/
  can-raise facts to a fixpoint (ASYNC009-ASYNC011);
* :mod:`repro.checkers.controlproto` cross-checks the fleet control-op
  vocabulary between launcher, worker, and ``docs/RUNTIME.md``
  (CTRL001-CTRL005).

Per-file results are memoized like tier 1's, but the cache key is a
**dependency-closure key**: a file's entry is salted with the content
hashes of its transitive import closure inside the scanned tree, so
editing a transitive callee invalidates every dependent file's entry
-- warm runs stay byte-identical to cold runs *and* correct under
cross-file edits.  ``--jobs N`` fans the per-file extraction out over
multiprocessing workers; the global fixpoint is a single cheap pass.

The report mirrors :class:`~repro.checkers.engine.LintReport` --
including the never-silent suppression budget -- plus the model
checkers' exploration counts and the call graph's size, which the CLI
prints so a fixpoint run is visible evidence, not a silent pass.
"""

from __future__ import annotations

import ast
import hashlib
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.checkers.callgraph import (
    ModuleSummary,
    analyze_callgraph,
    module_name_for,
    package_root,
    summarize_module,
)
from repro.checkers.controlproto import check_control
from repro.checkers.engine import (
    CACHE_DIR_NAME,
    _cache_load,
    _cache_store,
    _display_path,
    find_project_root,
    iter_python_files,
)
from repro.checkers.findings import (
    DirectiveError,
    Finding,
    parse_suppressions,
    split_suppressed,
)
from repro.checkers.fsm import CONNECTION_PATH, extract_session_fsm
from repro.checkers.fsm import check_fsm_tables
from repro.checkers.modelcheck import (
    check_fleet_model,
    check_model,
    extract_fleet_fsm,
)
from repro.checkers.raceflow import check_raceflow

#: Rule id -> one-line description (tier-2/3 catalog; tier 1 lives in
#: :data:`repro.checkers.engine.RULES`).
VERIFY_RULES: Dict[str, str] = {
    "FSM001": "reachable deadlock in the two-session product space",
    "FSM002": "declared session state unreachable from the initial state",
    "FSM004": "declared transition table diverges from _set_state sites",
    "FSM005": "reachable deadlock in the launcher x worker lifecycle product",
    "FSM006": "declared fleet lifecycle state unreachable from boot",
    "ASYNC006": "cross-await read-modify-write of a shared attribute",
    "ASYNC007": "attribute written by several coroutines without a lock",
    "ASYNC008": "guard condition re-read stale after an await",
    "ASYNC009": "blocking call reachable from a coroutine via sync helpers",
    "ASYNC010": "lock held across an event-loop wait in a transitive callee",
    "ASYNC011": "spawned task's coroutine can raise with no exception sink",
    "CTRL001": "control op sent by the launcher with no worker dispatch",
    "CTRL002": "worker dispatch branch for an op the launcher never sends",
    "CTRL003": "launcher reads a response key the worker never returns",
    "CTRL004": "control op sent with no timeout at site or wrapper",
    "CTRL005": "control-op vocabulary and docs/RUNTIME.md table diverge",
}


@dataclass
class VerifyReport:
    """Everything one ``run_verify_static`` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_scanned: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    #: Session model-checker evidence (zero until the FSM prong runs).
    fsm_checked: bool = False
    states_explored: int = 0
    transitions_explored: int = 0
    established_reachable: bool = False
    #: Fleet lifecycle product evidence (zero until the tables exist).
    fleet_checked: bool = False
    fleet_states_explored: int = 0
    fleet_transitions_explored: int = 0
    fleet_done_reachable: bool = False
    #: Call-graph size evidence for --stats / bench.
    functions_indexed: int = 0
    call_edges: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts(self) -> "Counter[str]":
        return Counter(finding.rule for finding in self.findings)

    def suppressed_counts(self) -> "Counter[str]":
        return Counter(finding.rule for finding in self.suppressed)

    def stats_rows(self) -> List[Dict[str, object]]:
        active = self.counts()
        budget = self.suppressed_counts()
        return [
            {
                "rule": rule,
                "description": VERIFY_RULES[rule],
                "findings": active.get(rule, 0),
                "suppressed": budget.get(rule, 0),
            }
            for rule in sorted(VERIFY_RULES)
        ]


def _split_with_source(
    report: VerifyReport,
    findings: List[Finding],
    source: str,
    display: str,
) -> None:
    """File-level suppression pass; directive errors never mask findings."""
    try:
        suppressions = parse_suppressions(source, display)
    except DirectiveError as exc:
        report.errors.append(str(exc))
        suppressions = {}
    active, suppressed = split_suppressed(sorted(findings), suppressions)
    report.findings.extend(active)
    report.suppressed.extend(suppressed)


# -- per-file fan-out (picklable workers) -----------------------------------


def _summarize_worker(
    source: str, display: str, module_name: str, is_package: bool
) -> Tuple[Optional[ModuleSummary], Optional[str]]:
    """Extract one file's call-graph summary (top-level for --jobs)."""
    try:
        return summarize_module(source, display, module_name, is_package), None
    except (SyntaxError, ValueError) as exc:
        return None, f"{display}: cannot analyze: {exc}"


def _raceflow_worker(source: str, display: str) -> List[Finding]:
    """Run the tier-2 race rules on one (parseable) file."""
    return check_raceflow(ast.parse(source, filename=display), display)


# -- dependency-closure cache keys ------------------------------------------
#
# A tier-2/3 entry is keyed on the checker-source salt, the display
# path, the file's own content, and the (display, content-hash) pairs
# of its *transitive import closure* within the scanned tree.  Editing
# any transitive callee therefore changes the dependent file's key:
# interprocedural findings can be replayed from cache without ever
# going stale.

_SALT_MODULES = (
    "repro.checkers.raceflow",
    "repro.checkers.fsm",
    "repro.checkers.modelcheck",
    "repro.checkers.callgraph",
    "repro.checkers.controlproto",
    "repro.checkers.findings",
    "repro.checkers.verifystatic",
)
_salt_cache: Optional[str] = None


def _verify_salt() -> str:
    global _salt_cache
    if _salt_cache is None:
        import importlib

        digest = hashlib.sha256(b"verify-static\x00")
        for name in _SALT_MODULES:
            module = importlib.import_module(name)
            module_file = getattr(module, "__file__", None)
            if module_file:
                digest.update(Path(module_file).read_bytes())
        _salt_cache = digest.hexdigest()[:16]
    return _salt_cache


def _import_closure(
    module_name: str, imports_by_module: Dict[str, List[str]]
) -> List[str]:
    """Transitive in-tree imports of ``module_name`` (itself excluded)."""
    seen: Set[str] = {module_name}
    frontier = [module_name]
    while frontier:
        current = frontier.pop()
        for imported in imports_by_module.get(current, []):
            if imported in imports_by_module and imported not in seen:
                seen.add(imported)
                frontier.append(imported)
    seen.discard(module_name)
    return sorted(seen)


def closure_key(
    display: str,
    content: bytes,
    closure: List[Tuple[str, str]],
) -> str:
    """Cache key for one file given its sorted (display, hash) closure."""
    digest = hashlib.sha256()
    digest.update(_verify_salt().encode("ascii"))
    digest.update(display.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(content)
    for dep_display, dep_hash in closure:
        digest.update(b"\x00")
        digest.update(dep_display.encode("utf-8", "replace"))
        digest.update(b"\x00")
        digest.update(dep_hash.encode("ascii"))
    return digest.hexdigest()


# -- the driver -------------------------------------------------------------


def run_verify_static(
    paths: Iterable[Path],
    *,
    project_root: Optional[Path] = None,
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> VerifyReport:
    """Run the tier-2/3 analyzers over ``paths``."""
    started = time.perf_counter()
    report = VerifyReport()
    targets = [Path(p) for p in paths]
    root = project_root or find_project_root(targets)
    cache_root = cache_dir or (root or Path(".")) / CACHE_DIR_NAME

    naming_roots: List[Path] = []
    for target in targets:
        base = target if target.is_dir() else target.parent
        if base.is_dir():
            resolved = package_root(base).resolve()
            if resolved not in naming_roots:
                naming_roots.append(resolved)

    # Phase A: read + summarize every file (the summaries are the call
    # graph's input, so they are needed even on a fully warm run).
    files: List[Tuple[Path, str, str, str, bool]] = []
    for path in iter_python_files(targets):
        display = _display_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.errors.append(f"{display}: cannot analyze: {exc}")
            continue
        module_name = module_name_for(path, naming_roots)
        files.append(
            (path, display, source, module_name, path.name == "__init__.py")
        )
    jobs = max(1, jobs)
    work = [
        (source, display, module_name, is_package)
        for _, display, source, module_name, is_package in files
    ]
    if jobs > 1 and len(work) > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            summarized = pool.starmap(_summarize_worker, work)
    else:
        summarized = [_summarize_worker(*args) for args in work]

    summaries: List[ModuleSummary] = []
    parseable: List[Tuple[Path, str, str]] = []  # (path, display, source)
    imports_by_module: Dict[str, List[str]] = {}
    display_by_module: Dict[str, str] = {}
    hash_by_module: Dict[str, str] = {}
    for (path, display, source, module_name, _), (summary, error) in zip(
        files, summarized
    ):
        report.files_scanned += 1
        if summary is None:
            if error is not None:
                report.errors.append(error)
            continue
        summaries.append(summary)
        parseable.append((path, display, source))
        imports_by_module[module_name] = list(summary.import_modules)
        display_by_module[module_name] = display
        hash_by_module[module_name] = hashlib.sha256(
            source.encode("utf-8")
        ).hexdigest()

    module_by_display = {
        summary.display: summary.module for summary in summaries
    }

    # Phase B: dependency-closure cache check.
    hits: Dict[str, bool] = {}
    keys: Dict[str, Optional[str]] = {}
    for path, display, source in parseable:
        module_name = module_by_display[display]
        key: Optional[str] = None
        if cache:
            closure = [
                (display_by_module[dep], hash_by_module[dep])
                for dep in _import_closure(module_name, imports_by_module)
            ]
            key = closure_key(
                display, source.encode("utf-8"), sorted(closure)
            )
            entry = _cache_load(cache_root, key)
            if entry is not None:
                active, suppressed, error = entry
                report.cache_hits += 1
                report.findings.extend(active)
                report.suppressed.extend(suppressed)
                if error is not None:
                    report.errors.append(error)
                hits[display] = True
        keys[display] = key
    missed = [
        (path, display, source)
        for path, display, source in parseable
        if display not in hits
    ]

    # Phase C: the global fixpoint.  The graph is always built (its
    # size is part of the report's evidence); the interprocedural rules
    # only re-run when at least one file missed the cache.
    graph_findings: Dict[str, List[Finding]] = {}
    if missed or not cache:
        graph_report = analyze_callgraph(summaries)
        report.functions_indexed = graph_report.functions_indexed
        report.call_edges = graph_report.call_edges
        graph_findings = graph_report.findings

        race_work = [(source, display) for _, display, source in missed]
        if jobs > 1 and len(race_work) > 1:
            with multiprocessing.Pool(processes=jobs) as pool:
                race_results = pool.starmap(_raceflow_worker, race_work)
        else:
            race_results = [
                _raceflow_worker(*args) for args in race_work
            ]
        for (path, display, source), race in zip(missed, race_results):
            findings = race + graph_findings.get(display, [])
            error: Optional[str] = None
            try:
                suppressions = parse_suppressions(source, display)
            except DirectiveError as exc:
                suppressions = {}
                error = str(exc)
            active, suppressed = split_suppressed(
                sorted(findings), suppressions
            )
            report.findings.extend(active)
            report.suppressed.extend(suppressed)
            if error is not None:
                report.errors.append(error)
            key = keys.get(display)
            if cache and key is not None:
                _cache_store(cache_root, key, active, suppressed, error)
    else:
        graph = analyze_callgraph(summaries)
        report.functions_indexed = graph.functions_indexed
        report.call_edges = graph.call_edges

    # Phase D: project-scope prongs, recomputed on every run (they
    # cross files, docs, and declared tables; each is a single cheap
    # fixpoint so caching them would buy nothing).
    if root is not None:
        fsm = extract_session_fsm(root)
        if fsm is not None:
            report.fsm_checked = True
            fsm_findings = check_fsm_tables(fsm)
            model_findings, result = check_model(fsm)
            report.states_explored = result.states_explored
            report.transitions_explored = result.transitions_explored
            report.established_reachable = result.established_reachable
            try:
                connection_source = (root / CONNECTION_PATH).read_text(
                    encoding="utf-8"
                )
            except OSError:
                connection_source = ""
            _split_with_source(
                report,
                fsm_findings + model_findings,
                connection_source,
                str(CONNECTION_PATH),
            )

        fleet = extract_fleet_fsm(root)
        if fleet is not None:
            report.fleet_checked = True
            fleet_findings, fleet_result = check_fleet_model(fleet)
            report.fleet_states_explored = fleet_result.states_explored
            report.fleet_transitions_explored = (
                fleet_result.transitions_explored
            )
            report.fleet_done_reachable = fleet_result.done_reachable
        else:
            fleet_findings = []

        control_findings = check_control(root)

        for display, group in _group_by_path(
            fleet_findings + control_findings
        ).items():
            if not display.endswith(".py"):
                # Findings anchored in docs carry no suppression surface.
                report.findings.extend(sorted(group))
                continue
            try:
                source = (root / display).read_text(encoding="utf-8")
            except OSError:
                source = ""
            _split_with_source(report, group, source, display)

    report.findings.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _group_by_path(findings: List[Finding]) -> Dict[str, List[Finding]]:
    grouped: Dict[str, List[Finding]] = {}
    for finding in findings:
        grouped.setdefault(finding.path, []).append(finding)
    return grouped
