"""Every rule fires exactly where its fixture says it should, and every
rule catches the defect that earned it its place.

Each fixture in ``fixtures/`` is a deliberately-bad snippet annotated
with ``# expect: RULE[,RULE...]`` markers; the harness asserts the
analyzer produces *exactly* the marked (line, rule) multiset -- so both
missed detections and false positives on the surrounding idiomatic code
fail.

``EVIDENCE`` is the rule trial of ``docs/STATIC_ANALYSIS.md`` as code:
for each rule, a mutation of today's ``src/`` that restores the defect
the rule caught (EXC001, ASYNC009) or introduces one the rest of the
suite misses (``pytest --ignore=tests/checkers`` passes with it applied).
A rule without an entry has no evidence and is not in the catalog.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.checkers import RULES, run_lint

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

_MARKER = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")

_EXPECT_FIXTURES = sorted(FIXTURES.glob("*.py"))

#: rule -> (file, pattern, replacement): the mutation that trips it.
EVIDENCE = {
    # The defect it found: FleetLauncher.start ran _spawn (open +
    # Popen) on the event loop.
    "ASYNC009": (
        "src/repro/fleet/launcher.py",
        r"await loop\.run_in_executor\(None, self\._spawn, index\)",
        "self._spawn(index)",
    ),
    # The defect it found: the handshake accept swallowed every
    # exception.
    "EXC001": (
        "src/repro/runtime/cluster.py",
        r"except \(\n\s+asyncio\.TimeoutError,.*?await channel\.close\(\)",
        "except Exception:\n            await channel.close()",
    ),
    # The stop op is never sent: every stop waits out its grace and
    # falls through to SIGTERM.
    "ASYNC002": (
        "src/repro/fleet/launcher.py",
        r'await (self\._call\(handle\.index, \{"op": "stop"\}\))',
        r"\1",
    ),
    # PeerSession.stop() can no longer cancel the dial loop.
    "ASYNC003": (
        "src/repro/runtime/connection.py",
        r"self\._dial_task = (asyncio\.get_running_loop\(\)\.create_task\()",
        r"\1",
    ),
    # A line ahead of the document `repro fleet --json` prints.
    "OBS001": (
        "src/repro/fleet/launcher.py",
        r"(\n        label = f\"fleet_update:\{index\}\"\n)",
        r'\1        print(f"operation {label}")\n',
    ),
}


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
    """One fixture per rule, and nothing else in the directory."""
    covered = set()
    for path in _EXPECT_FIXTURES:
        covered |= {rule for (_, rule) in expected_findings(path)}
    assert covered == set(RULES)
    assert len(_EXPECT_FIXTURES) == len(RULES)


@pytest.mark.parametrize(
    "fixture", _EXPECT_FIXTURES, ids=lambda p: p.stem
)
def test_rules_fire_exactly_where_marked(fixture):
    expected = expected_findings(fixture)
    assert expected, f"{fixture.name} declares no expectations"

    report = run_lint([fixture])
    assert report.errors == []
    actual = Counter((f.line, f.rule) for f in report.findings)
    assert actual == expected


@pytest.mark.parametrize(
    "fixture", _EXPECT_FIXTURES, ids=lambda p: p.stem
)
def test_findings_carry_location_and_hint(fixture):
    for finding in run_lint([fixture]).findings:
        assert finding.path.endswith(fixture.name)
        assert finding.line >= 1 and finding.col >= 1
        assert finding.rule in RULES
        assert finding.message
        assert finding.hint, f"{finding.rule} must ship a fix hint"
        rendered = finding.render()
        assert rendered.startswith(
            f"{finding.path}:{finding.line}:{finding.col}: {finding.rule}"
        )


def test_every_rule_has_evidence():
    assert set(EVIDENCE) == set(RULES)


@pytest.mark.parametrize("rule", sorted(EVIDENCE))
def test_each_rule_catches_the_defect_that_earned_it(rule, tmp_path):
    relative, pattern, replacement = EVIDENCE[rule]
    source = (ROOT / relative).read_text(encoding="utf-8")
    mutated, count = re.subn(pattern, replacement, source, count=1, flags=re.S)
    assert count == 1, f"mutation site for {rule} moved in {relative}"
    target = tmp_path / Path(relative).name
    target.write_text(mutated, encoding="utf-8")
    assert [f.rule for f in run_lint([target]).findings] == [rule]
