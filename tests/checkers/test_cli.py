"""``python -m repro lint`` front end: exit codes, --stats, --github,
--select/--rule filtering, and --sarif output."""

import json
import subprocess
import sys
from pathlib import Path

from repro.checkers import RULES
from repro.checkers.cli import main as lint_main
from repro.cli import main as repro_main

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
BAD_FILE = FIXTURES / "exc001_swallow.py"
#: Findings render repo-relative paths (the engine relativizes against
#: the project root that owns the DVM protocol).
BAD_FILE_DISPLAY = BAD_FILE.resolve().relative_to(ROOT).as_posix()


def test_lint_src_exits_zero(capsys):
    assert repro_main(["lint", str(ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert "lint-clean" in out


def test_lint_findings_exit_one_with_location_and_hint(capsys):
    assert repro_main(["lint", str(BAD_FILE)]) == 1
    out = capsys.readouterr().out
    assert "EXC001" in out
    assert f"{BAD_FILE_DISPLAY}:" in out
    assert "hint:" in out


def test_missing_path_exits_two(capsys):
    assert repro_main(["lint", str(ROOT / "no_such_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_github_annotations_format(capsys):
    assert repro_main(["lint", "--github", str(BAD_FILE)]) == 1
    lines = capsys.readouterr().out.splitlines()
    annotations = [line for line in lines if line.startswith("::error ")]
    assert annotations, "expected ::error workflow commands"
    assert any(
        f"file={BAD_FILE_DISPLAY}" in line and "title=EXC001" in line
        for line in annotations
    )


def test_stats_prints_rule_table_and_wall_time(capsys):
    assert repro_main(["lint", "--stats", str(BAD_FILE)]) == 1
    out = capsys.readouterr().out
    assert "per-rule statistics" in out
    assert "EXC001" in out
    assert "analyzed 1 file(s)" in out
    assert "ms" in out


def test_suppression_budget_is_reported(capsys):
    fixture = FIXTURES / "suppressed_budget.py"
    assert repro_main(["lint", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "suppression budget: 2 finding(s)" in out
    assert "ASYNC001 x1" in out and "HYG001 x1" in out


def test_select_filters_out_other_rules(capsys):
    # BAD_FILE's only finding is EXC001; selecting a different rule
    # leaves nothing to report, so the run is clean.
    assert repro_main(["lint", str(BAD_FILE), "--select", "HYG001"]) == 0
    out = capsys.readouterr().out
    assert "EXC001" not in out


def test_select_keeps_matching_rules(capsys):
    assert repro_main(["lint", str(BAD_FILE), "--rule", "EXC001"]) == 1
    assert "EXC001" in capsys.readouterr().out


def test_select_unknown_rule_exits_two(capsys):
    assert repro_main(["lint", str(BAD_FILE), "--select", "NOPE001"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s): NOPE001" in err
    assert "EXC001" in err  # the known catalog is listed back


def test_sarif_output_carries_catalog_and_locations(tmp_path, capsys):
    out_file = tmp_path / "findings.sarif"
    assert repro_main(["lint", str(BAD_FILE), "--sarif", str(out_file)]) == 1
    capsys.readouterr()
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(RULES)
    result = next(r for r in run["results"] if r["ruleId"] == "EXC001")
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("exc001_swallow.py")
    assert location["region"]["startLine"] >= 1
    assert "hint:" in result["message"]["text"]
    assert run["invocations"][0]["executionSuccessful"] is True


def test_standalone_entry_point(capsys):
    assert lint_main([str(BAD_FILE)]) == 1
    capsys.readouterr()


def test_module_invocation_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "lint-clean" in result.stdout
