"""The whole-program tier of ``python -m repro lint``: the call-graph rules
(ASYNC002, ASYNC003, ASYNC009) that once ran as a separate
``verify-static`` command now share the one report, exit codes and
renderings with the per-file rules."""

import textwrap
from pathlib import Path

from repro.checkers import RULES, run_lint
from repro.cli import main as repro_main

ROOT = Path(__file__).resolve().parents[2]

#: The rules that need the call graph over the whole scan.
CALL_GRAPH_RULES = ("ASYNC002", "ASYNC003", "ASYNC009")

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
    report = run_lint([ROOT / "src"])
    call_graph_findings = [
        f for f in report.findings if f.rule in CALL_GRAPH_RULES
    ]
    rendered = "\n".join(f.render() for f in call_graph_findings)
    assert call_graph_findings == [], f"call-graph findings:\n{rendered}"
    assert report.errors == []
    assert report.files_scanned > 50
    assert report.functions_indexed > 500
    assert report.call_edges > 500


def test_cli_stats_lists_every_tier2_rule(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    assert repro_main(["lint", str(tmp_path), "--stats"]) == 1
    out = capsys.readouterr().out
    assert set(CALL_GRAPH_RULES) <= set(RULES)
    rows = {
        line.split()[0]: line.split()[-1]
        for line in out.splitlines()
        if line.strip().split(" ", 1)[0] in RULES
    }
    assert rows == {
        "ASYNC002": "0",
        "ASYNC003": "0",
        "ASYNC009": "1",
        "EXC001": "0",
        "OBS001": "0",
    }
    assert "call graph: 2 function(s) / 1 resolved edge(s)" in out
    assert "analyzed 1 file(s)" in out


def test_cli_github_annotations(tmp_path, capsys):
    (tmp_path / "racy.py").write_text(BLOCKING)
    assert repro_main(["lint", "--github", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    annotations = [l for l in lines if l.startswith("::error ")]
    assert len(annotations) == 1
    assert "title=ASYNC009" in annotations[0]
    assert "'time.sleep' is reachable from 'async def top'" in annotations[0]


def test_cli_missing_path_exits_two(tmp_path, capsys):
    """One missing path refuses the whole scan: the call graph is never
    built over a partial tree."""
    (tmp_path / "racy.py").write_text(BLOCKING)
    missing = tmp_path / "no_such_dir"
    assert repro_main(["lint", str(tmp_path), str(missing)]) == 2
    captured = capsys.readouterr()
    assert "no such path" in captured.err
    assert str(missing) in captured.err
    assert "ASYNC009" not in captured.out
