"""``python -m repro verify-static``: report, exit codes, rendering,
and the suppression budget for the tier-2/3 rules."""

import json
import textwrap
from pathlib import Path

from repro.checkers import VERIFY_RULES, run_verify_static
from repro.cli import main as repro_main

ROOT = Path(__file__).resolve().parents[2]

#: One ASYNC009 chain: a coroutine reaches ``time.sleep`` via a helper.
BLOCKING = textwrap.dedent(
    """
    import time

    def low():
        time.sleep(1)

    async def top():
        low()
    """
)


def test_shipped_tree_is_verify_clean():
    report = run_verify_static([ROOT / "src"])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"verify-static findings:\n{rendered}"
    assert report.errors == []
    assert report.suppressed == []  # zero tier-2 suppression budget
    assert report.fsm_checked
    assert report.states_explored > 0
    assert report.transitions_explored > 0
    assert report.established_reachable
    assert report.files_scanned > 50
    assert report.functions_indexed > 500
    assert report.call_edges > 500


def test_cli_clean_run_prints_fixpoint_evidence(capsys):
    assert repro_main(["verify-static", str(ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert "model: explored" in out
    assert "product state" in out
    assert "to fixpoint" in out
    assert "ESTABLISHED/ESTABLISHED reachable" in out
    assert "verify-static clean" in out


def test_cli_stats_lists_every_tier2_rule(capsys):
    assert (
        repro_main(["verify-static", str(ROOT / "src"), "--stats"]) == 0
    )
    out = capsys.readouterr().out
    for rule in VERIFY_RULES:
        assert rule in out
    assert "call graph:" in out
    assert "analyzed" in out


def test_cli_seeded_race_exits_one(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    assert repro_main(["verify-static", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "ASYNC009" in out
    assert "'time.sleep' is reachable from 'async def top'" in out
    assert "hint:" in out


def test_cli_github_annotations(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    assert repro_main(["verify-static", "--github", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    annotations = [l for l in lines if l.startswith("::error ")]
    assert len(annotations) == 1
    assert "title=ASYNC009" in annotations[0]


def test_cli_missing_path_exits_two(capsys):
    assert repro_main(["verify-static", str(ROOT / "no_such_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_suppression_counted_never_silent(tmp_path, capsys):
    source = BLOCKING.replace(
        "    low()", "    low()  # repro-lint: disable=ASYNC009"
    )
    (tmp_path / "racy.py").write_text(source)
    report = run_verify_static([tmp_path])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["ASYNC009"]
    assert repro_main(["verify-static", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "suppression budget: 1 finding(s)" in out
    assert "ASYNC009 x1" in out


def test_bad_directive_reported_alongside_findings(tmp_path):
    source = "# repro-lint: enable=ASYNC009\n" + BLOCKING
    (tmp_path / "racy.py").write_text(source)
    report = run_verify_static([tmp_path])
    assert [f.rule for f in report.findings] == ["ASYNC009"]
    assert len(report.errors) == 1
    assert "unknown repro-lint directive" in report.errors[0]


def test_foreign_tree_skips_fsm_prong(tmp_path):
    (tmp_path / "mod.py").write_text("X = 1\n")
    report = run_verify_static([tmp_path])
    assert not report.fsm_checked
    assert report.states_explored == 0
    assert report.clean


def test_cli_select_restricts_verify_rules(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    assert (
        repro_main(
            ["verify-static", str(tmp_path), "--select", "FSM001,ASYNC010"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ASYNC009" not in out


def test_cli_sarif_carries_the_tier3_catalog(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    out_file = tmp_path / "verify.sarif"
    assert (
        repro_main(
            ["verify-static", str(tmp_path), "--sarif", str(out_file)]
        )
        == 1
    )
    capsys.readouterr()
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-verify-static"
    ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert ids == set(VERIFY_RULES)
    assert {"ASYNC009", "ASYNC010", "ASYNC011", "FSM001", "FSM002"} == ids
    assert [r["ruleId"] for r in run["results"]] == ["ASYNC009"]
