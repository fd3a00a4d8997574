"""Engine mechanics: file discovery (skip dirs, symlink cycles) and
unanalyzable files."""

import pytest

from repro.checkers import run_lint
from repro.checkers.engine import iter_python_files

#: A body with one deterministic finding (EXC001).
FLAGGED = "try:\n    pass\nexcept Exception:\n    pass\n"
CLEAN = "VALUE = {}\n".format(1)


# -- discovery ---------------------------------------------------------------


def test_skip_dirs_are_pruned(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "good.py").write_text(CLEAN)
    for skipped in (
        ".git",
        ".venv",
        ".tox",
        "node_modules",
        "build",
        "__pycache__",
    ):
        (tmp_path / skipped).mkdir()
        (tmp_path / skipped / "ignored.py").write_text(FLAGGED)
    # Nested skip dirs are pruned too, not just top-level ones.
    (tmp_path / "pkg" / ".venv").mkdir()
    (tmp_path / "pkg" / ".venv" / "deep.py").write_text(FLAGGED)
    found = iter_python_files([tmp_path])
    assert [p.name for p in found] == ["good.py"]


def test_symlink_cycle_terminates(tmp_path):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (nested / "mod.py").write_text(CLEAN)
    try:
        # b/loop -> a: walking naively recurses a/b/loop/b/loop/...
        (nested / "loop").symlink_to(tmp_path / "a")
        (tmp_path / "self").symlink_to(tmp_path)
    except OSError:
        pytest.skip("platform does not support symlinks")
    found = iter_python_files([tmp_path])
    assert [p.name for p in found] == ["mod.py"]


def test_symlinked_external_dir_is_followed_once(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "ext.py").write_text(CLEAN)
    scanned = tmp_path / "scanned"
    scanned.mkdir()
    try:
        (scanned / "link").symlink_to(outside)
    except OSError:
        pytest.skip("platform does not support symlinks")
    names = [p.name for p in iter_python_files([scanned])]
    assert names == ["ext.py"]


# -- unanalyzable files -------------------------------------------------------


def test_unparsable_file_is_an_error_next_to_the_findings(tmp_path):
    (tmp_path / "broken.py").write_text("def (:\n")
    (tmp_path / "flagged.py").write_text(FLAGGED)
    report = run_lint([tmp_path])
    assert [f.rule for f in report.findings] == ["EXC001"]
    assert len(report.errors) == 1 and "broken.py" in report.errors[0]
    assert report.files_scanned == 2
    assert not report.clean
