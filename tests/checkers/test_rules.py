"""Every per-file rule fires exactly where its fixture says it should.

Each fixture in ``fixtures/`` is a deliberately-bad snippet annotated
with ``# expect: RULE[,RULE...]`` markers; the test asserts the analyzer
produces *exactly* the marked (line, rule) multiset -- so both missed
detections and false positives on the surrounding idiomatic code fail.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.checkers import lint_file
from repro.checkers.engine import RULES

FIXTURES = Path(__file__).parent / "fixtures"

_MARKER = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")

#: Fixtures that exercise suppression directives are covered separately.
_EXPECT_FIXTURES = sorted(
    path
    for path in FIXTURES.glob("*.py")
    if "expect:" in path.read_text(encoding="utf-8")
)


def expected_findings(path: Path):
    """Multiset of (line, rule) pairs declared by ``# expect:`` markers."""
    expected = Counter()
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _MARKER.search(line)
        if match is None:
            continue
        for rule in match.group(1).split(","):
            rule = rule.strip()
            if rule:
                assert rule in RULES, f"unknown rule {rule!r} in {path.name}"
                expected[(lineno, rule)] += 1
    return expected


def test_fixture_inventory_covers_every_per_file_rule():
    """One fixture per rule family."""
    covered = set()
    for path in _EXPECT_FIXTURES:
        covered |= {rule for (_, rule) in expected_findings(path)}
    assert covered == set(RULES)


@pytest.mark.parametrize(
    "fixture", _EXPECT_FIXTURES, ids=lambda p: p.stem
)
def test_rules_fire_exactly_where_marked(fixture):
    expected = expected_findings(fixture)
    assert expected, f"{fixture.name} declares no expectations"

    findings, suppressed, error = lint_file(fixture)
    assert error is None
    assert suppressed == []
    actual = Counter((f.line, f.rule) for f in findings)
    assert actual == expected


@pytest.mark.parametrize(
    "fixture", _EXPECT_FIXTURES, ids=lambda p: p.stem
)
def test_findings_carry_location_and_hint(fixture):
    findings, _, _ = lint_file(fixture)
    for finding in findings:
        assert finding.path.endswith(fixture.name)
        assert finding.line >= 1 and finding.col >= 1
        assert finding.rule in RULES
        assert finding.message
        assert finding.hint, f"{finding.rule} must ship a fix hint"
        rendered = finding.render()
        assert rendered.startswith(
            f"{finding.path}:{finding.line}:{finding.col}: {finding.rule}"
        )
