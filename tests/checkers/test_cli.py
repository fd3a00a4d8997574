"""``python -m repro lint`` front end: exit codes, --stats, --github, and
the one-command surface (paths, --stats, --github; nothing else)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkers import RULES
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


def test_call_graph_findings_share_the_one_report(capsys):
    fixture = FIXTURES / "async009_blocking.py"
    assert repro_main(["lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "'time.sleep' is reachable from 'async def one_hop_away'" in out


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
    for rule in RULES:
        assert rule in out
    assert "call graph:" in out
    assert "analyzed 1 file(s)" in out
    assert "ms" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-static", "src"],
        ["lint", "src", "--select", "EXC001"],
        ["lint", "src", "--sarif", "out.sarif"],
    ],
    ids=["verify-static", "select", "sarif"],
)
def test_retired_command_and_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro_main(argv)
    assert exit_info.value.code == 2
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
