"""Tier-2/3 semantic verification: ``python -m repro verify-static``.

Tier 1 (``repro lint``) is syntactic and per-file; this tier reasons
about *behavior*, in one pass:

* every scanned file is parsed once into its
  :class:`~repro.checkers.callgraph.ModuleSummary`;
* :mod:`repro.checkers.callgraph` builds a module-resolving call graph
  over the summaries and propagates blocking/proxy-await/can-raise
  facts to a fixpoint (ASYNC009-ASYNC011);
* :mod:`repro.checkers.modelcheck` exhaustively explores the
  two-peer-session product of the table ``PeerSession._fire`` executes
  (FSM001/FSM002) whenever the scanned tree is this repository.

The report mirrors :class:`~repro.checkers.engine.LintReport` --
including the never-silent suppression budget -- plus the model
checker's exploration counts and the call graph's size, which the CLI
prints so a fixpoint run is visible evidence, not a silent pass.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.checkers.callgraph import (
    ModuleSummary,
    analyze_callgraph,
    module_name_for,
    package_root,
    summarize_module,
)
from repro.checkers.engine import (
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
from repro.checkers.modelcheck import CONNECTION_PATH, check_model
from repro.runtime.connection import SESSION_STATES, SESSION_TRANSITIONS

#: Rule id -> one-line description (tier-2/3 catalog; tier 1 lives in
#: :data:`repro.checkers.engine.RULES`).
VERIFY_RULES: Dict[str, str] = {
    "FSM001": "reachable deadlock in the two-session product space",
    "FSM002": "declared session state unreachable from the initial state",
    "ASYNC009": "blocking call reachable from a coroutine via sync helpers",
    "ASYNC010": "lock held across an event-loop wait in a transitive callee",
    "ASYNC011": "spawned task's coroutine can raise with no exception sink",
}


@dataclass
class VerifyReport:
    """Everything one ``run_verify_static`` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_scanned: int = 0
    elapsed_seconds: float = 0.0
    #: Session model-checker evidence (zero until the FSM prong runs).
    fsm_checked: bool = False
    states_explored: int = 0
    transitions_explored: int = 0
    established_reachable: bool = False
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


def run_verify_static(
    paths: Iterable[Path], *, project_root: Optional[Path] = None
) -> VerifyReport:
    """Run the tier-2/3 analyzers over ``paths``."""
    started = time.perf_counter()
    report = VerifyReport()
    targets = [Path(p) for p in paths]
    root = project_root or find_project_root(targets)

    naming_roots: List[Path] = []
    for target in targets:
        base = target if target.is_dir() else target.parent
        if base.is_dir():
            resolved = package_root(base).resolve()
            if resolved not in naming_roots:
                naming_roots.append(resolved)

    sources: Dict[str, str] = {}  # display -> text of each parsed file
    summaries: List[ModuleSummary] = []
    for path in iter_python_files(targets):
        display = _display_path(path, root)
        report.files_scanned += 1
        try:
            source = path.read_text(encoding="utf-8")
            summaries.append(
                summarize_module(
                    source,
                    display,
                    module_name_for(path, naming_roots),
                    path.name == "__init__.py",
                )
            )
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append(f"{display}: cannot analyze: {exc}")
            continue
        sources[display] = source

    graph = analyze_callgraph(summaries)
    report.functions_indexed = graph.functions_indexed
    report.call_edges = graph.call_edges
    findings = dict(graph.findings)

    # The session product runs when the scanned tree is this repository
    # (connection.py exists under its root); the table explored is the
    # imported one, i.e. the dict the session executes.
    connection = root / CONNECTION_PATH if root is not None else None
    if connection is not None and connection.is_file():
        display = str(CONNECTION_PATH)
        if display not in sources:
            sources[display] = connection.read_text(encoding="utf-8")
        text = sources[display]
        table_line = 1 + text.count(
            "\n", 0, text.find("\nSESSION_TRANSITIONS") + 1
        )
        model_findings, result = check_model(
            SESSION_STATES, SESSION_TRANSITIONS, table_line
        )
        findings[display] = findings.get(display, []) + model_findings
        report.fsm_checked = True
        report.states_explored = result.states_explored
        report.transitions_explored = result.transitions_explored
        report.established_reachable = result.established_reachable

    # Suppression pass per file; a directive error never masks findings.
    for display, source in sources.items():
        try:
            suppressions = parse_suppressions(source, display)
        except DirectiveError as exc:
            report.errors.append(str(exc))
            suppressions = {}
        active, suppressed = split_suppressed(
            sorted(findings.get(display, [])), suppressions
        )
        report.findings.extend(active)
        report.suppressed.extend(suppressed)

    report.findings.sort()
    report.suppressed.sort()
    report.elapsed_seconds = time.perf_counter() - started
    return report
