"""The repo's own source must stay lint-clean -- with zero suppressions.

This is the regression gate the analyzers exist for: any PR that
introduces a blocking call in a coroutine or adds a swallowing handler
fails here (and in the CI lint job) with a file:line finding.  Suppressions are budgeted at zero for ``src/`` so
they cannot creep in undisclosed; raising the budget is an explicit,
reviewed change to this test.
"""

from pathlib import Path

from repro.checkers import run_lint

ROOT = Path(__file__).resolve().parents[2]

#: Inline-suppression budget for src/.  Intentionally zero.
SUPPRESSION_BUDGET = 0


def test_src_is_lint_clean():
    report = run_lint([ROOT / "src"])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"repro-lint findings:\n{rendered}"
    assert report.errors == []
    assert report.files_scanned > 50  # the whole tree was actually walked


def test_src_has_no_undisclosed_suppressions():
    report = run_lint([ROOT / "src"])
    rendered = "\n".join(f.render() for f in report.suppressed)
    assert len(report.suppressed) <= SUPPRESSION_BUDGET, (
        "inline repro-lint suppressions in src/ exceed the budget "
        f"({SUPPRESSION_BUDGET}):\n{rendered}"
    )


def test_protocol_rules_ran_against_src():
    """Scanning src/ locates the repo root (a regression here would
    silently skip verify-static's project-scope prongs)."""
    from repro.checkers.engine import find_project_root

    assert find_project_root([ROOT / "src"]) == ROOT
