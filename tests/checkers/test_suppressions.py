"""Inline suppression directives: scoped, budgeted, never silent."""

from pathlib import Path

import pytest

from repro.checkers import lint_file, parse_suppressions, run_lint
from repro.checkers.findings import (
    DirectiveError,
    Finding,
    is_suppressed,
    split_suppressed,
)

FIXTURES = Path(__file__).parent / "fixtures"
BUDGET_FIXTURE = FIXTURES / "suppressed_budget.py"


def test_parse_single_and_multi_rule_directives():
    source = (
        "x = 1  # repro-lint: disable=ASYNC001\n"
        "y = 2  # repro-lint: disable=EXC001,HYG002\n"
        "z = 3  # ordinary comment\n"
    )
    suppressions = parse_suppressions(source, "demo.py")
    assert suppressions == {
        1: frozenset({"ASYNC001"}),
        2: frozenset({"EXC001", "HYG002"}),
    }


def test_disable_all_suppresses_every_rule_on_the_line():
    suppressions = parse_suppressions(
        "x = 1  # repro-lint: disable=all\n", "demo.py"
    )
    finding = Finding(
        path="demo.py", line=1, col=1, rule="HYG001", message="m"
    )
    assert is_suppressed(finding, suppressions)


def test_suppression_is_scoped_to_its_physical_line():
    suppressions = parse_suppressions(
        "x = 1  # repro-lint: disable=HYG001\n", "demo.py"
    )
    same_rule_other_line = Finding(
        path="demo.py", line=2, col=1, rule="HYG001", message="m"
    )
    other_rule_same_line = Finding(
        path="demo.py", line=1, col=1, rule="EXC001", message="m"
    )
    assert not is_suppressed(same_rule_other_line, suppressions)
    assert not is_suppressed(other_rule_same_line, suppressions)


@pytest.mark.parametrize(
    "comment",
    [
        "# repro-lint: enable=ASYNC001",
        "# repro-lint: disable=",
        "# repro-lint: disable=ASYNC001,,EXC001",
        "# repro-lint: nonsense",
    ],
)
def test_malformed_directives_raise(comment):
    with pytest.raises(DirectiveError):
        parse_suppressions(f"x = 1  {comment}\n", "demo.py")


def test_malformed_directive_becomes_report_error(tmp_path):
    bad = tmp_path / "bad_directive.py"
    bad.write_text("x = 1  # repro-lint: disable=\n", encoding="utf-8")
    findings, suppressed, error = lint_file(bad)
    assert error is not None and "repro-lint" in error
    report = run_lint([bad])
    assert report.errors and not report.clean


def test_split_suppressed_partitions():
    findings = [
        Finding(path="p.py", line=1, col=1, rule="HYG001", message="a"),
        Finding(path="p.py", line=2, col=1, rule="HYG001", message="b"),
    ]
    active, suppressed = split_suppressed(
        findings, {1: frozenset({"HYG001"})}
    )
    assert [f.line for f in active] == [2]
    assert [f.line for f in suppressed] == [1]


def test_suppressed_findings_land_in_the_budget_not_the_failures():
    findings, suppressed, error = lint_file(BUDGET_FIXTURE)
    assert error is None
    assert findings == []  # nothing actively fails ...
    assert sorted(f.rule for f in suppressed) == ["ASYNC001", "HYG001"]

    report = run_lint([BUDGET_FIXTURE])
    assert report.clean  # suppressions do not fail the run ...
    assert report.suppressed_counts() == {"ASYNC001": 1, "HYG001": 1}
    rows = {row["rule"]: row for row in report.stats_rows()}
    assert rows["ASYNC001"]["suppressed"] == 1  # ... but stay visible
