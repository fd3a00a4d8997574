"""Engine mechanics: file discovery (skip dirs, symlink cycles), the
content-hash finding cache, directive-error reporting, and --jobs."""

import os
import time
from pathlib import Path

import pytest

from repro.checkers import lint_file, run_lint
from repro.checkers.engine import (
    CACHE_DIR_NAME,
    cache_key,
    iter_python_files,
)

#: A body with one deterministic finding (HYG001 mutable default).
FLAGGED = "def handler(items=[]):\n    return items\n"
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
        ".repro-lint-cache",
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


# -- directive errors --------------------------------------------------------


def test_bad_directive_reported_alongside_findings(tmp_path):
    # A typo'd directive must not mask the file's real findings.
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro-lint: enable=HYG001\n" + FLAGGED
    )
    findings, suppressed, error = lint_file(target, "mod.py")
    assert [f.rule for f in findings] == ["HYG001"]
    assert suppressed == []
    assert error is not None and "unknown repro-lint directive" in error


def test_bad_directive_keeps_lint_failing_via_report(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("# repro-lint: disable=\n" + FLAGGED)
    report = run_lint([tmp_path], cache=False)
    assert [f.rule for f in report.findings] == ["HYG001"]
    assert len(report.errors) == 1
    assert not report.clean


# -- finding cache -----------------------------------------------------------


def _tree(tmp_path, files=30, lines=80):
    root = tmp_path / "tree"
    root.mkdir()
    for index in range(files):
        body = ["import asyncio", "", ""]
        for line in range(lines):
            body.append(f"def fn_{index}_{line}(x={{}}):")
            body.append(f"    return {line} + len(x)")
        (root / f"mod_{index}.py").write_text("\n".join(body) + "\n")
    return root


def _run(root, cache_dir, **kwargs):
    return run_lint(
        [root], cache_dir=cache_dir, **kwargs
    )


def test_warm_cache_is_byte_identical_and_faster(tmp_path):
    root = _tree(tmp_path)
    cache_dir = tmp_path / CACHE_DIR_NAME
    cold = _run(root, cache_dir)
    assert cold.cache_hits == 0
    assert len(cold.findings) > 0
    warm = min(
        (_run(root, cache_dir) for _ in range(3)),
        key=lambda report: report.elapsed_seconds,
    )
    assert warm.cache_hits == warm.files_scanned == cold.files_scanned
    # Byte-identical replay: same findings, same order, same text.
    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings
    ]
    assert warm.suppressed == cold.suppressed
    assert warm.errors == cold.errors
    # >= 3x faster warm (the acceptance bar; typically far higher).
    assert warm.elapsed_seconds * 3 <= cold.elapsed_seconds, (
        f"warm {warm.elapsed_seconds:.4f}s vs cold "
        f"{cold.elapsed_seconds:.4f}s"
    )


def test_cache_invalidated_by_edit(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    target = root / "mod.py"
    target.write_text(CLEAN)
    cache_dir = tmp_path / CACHE_DIR_NAME
    assert _run(root, cache_dir).findings == []
    target.write_text(FLAGGED)
    report = _run(root, cache_dir)
    assert report.cache_hits == 0
    assert [f.rule for f in report.findings] == ["HYG001"]


def test_corrupt_cache_entry_is_reanalyzed(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    target = root / "mod.py"
    target.write_text(FLAGGED)
    cache_dir = tmp_path / CACHE_DIR_NAME
    _run(root, cache_dir)
    # No project root in a tmp tree: the display path is the posix path.
    key = cache_key(target.read_bytes(), target.as_posix())
    entry = cache_dir / f"{key}.json"
    assert entry.is_file()
    entry.write_text("{not json")
    report = _run(root, cache_dir)
    assert report.cache_hits == 0
    assert [f.rule for f in report.findings] == ["HYG001"]


def test_no_cache_leaves_no_directory(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "mod.py").write_text(CLEAN)
    cache_dir = tmp_path / CACHE_DIR_NAME
    report = _run(root, cache_dir, cache=False)
    assert report.cache_hits == 0
    assert not cache_dir.exists()


def test_jobs_produce_identical_reports(tmp_path):
    root = _tree(tmp_path, files=6, lines=10)
    serial = run_lint([root], cache=False, jobs=1)
    parallel = run_lint([root], cache=False, jobs=2)
    assert [f.render() for f in parallel.findings] == [
        f.render() for f in serial.findings
    ]
    assert parallel.errors == serial.errors
    assert parallel.files_scanned == serial.files_scanned
