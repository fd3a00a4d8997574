"""The repo's own source must stay lint-clean -- with zero suppressions.

This is the regression gate the analyzers exist for: any PR that
introduces a blocking call in a coroutine or adds a swallowing handler
fails here (and in the CI lint job) with a file:line finding.  Suppressions are budgeted at zero for ``src/`` so
they cannot creep in undisclosed; raising the budget is an explicit,
reviewed change to this test.

The same holds for dead modules: every module under ``src/repro`` must
be reached from a program, a benchmark or an example -- a module whose
only reader is its own test has no budget either.
"""

import ast
from collections import deque
from pathlib import Path

from repro.checkers import run_lint
from repro.checkers.callgraph import _Imports, module_name_for

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Modules run as programs: ``python -m repro`` and the worker processes
#: ``FleetLauncher`` spawns with ``python -m repro.fleet.worker``.
ENTRY_POINTS = ("repro.__main__", "repro.fleet.worker")

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


def _imports(path: Path, name: str):
    """``local name -> dotted target`` of every import in ``path``, and
    the subset that counts as a read (a package ``__init__`` reads only
    the names its own body uses; the rest are re-exports)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = _Imports(tree, name, path.name == "__init__.py").aliases
    if path.name != "__init__.py":
        return aliases, aliases
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return aliases, {k: v for k, v in aliases.items() if k in used}


def test_every_src_module_is_reached_from_outside_tests():
    modules = {
        module_name_for(path, [SRC]): path
        for path in (SRC / "repro").rglob("*.py")
    }
    aliases, reads = {}, {}
    for name, path in modules.items():
        aliases[name], reads[name] = _imports(path, name)

    def defining_module(target):
        """The module ``target`` is or lives in, through re-exports."""
        while target not in modules:
            owner, _, attr = target.rpartition(".")
            if not owner:
                return None
            forwarded = aliases.get(owner, {}).get(attr)
            if owner in modules and forwarded is None:
                return owner
            target = forwarded or owner
        return target

    roots = list(ENTRY_POINTS)
    for directory in ("benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            _, used = _imports(path, path.stem)
            roots.extend(defining_module(t) for t in used.values())
    reached = set()
    queue = deque(root for root in roots if root)
    while queue:
        name = queue.popleft()
        if name in reached:
            continue
        reached.add(name)
        queue.extend(
            module
            for module in map(defining_module, reads[name].values())
            if module
        )
    # Importing any module of a package runs the package's __init__.
    reached |= {
        name.rsplit(".", depth)[0]
        for name in reached
        for depth in range(1, name.count(".") + 1)
    }
    unreached = sorted(set(modules) - reached)
    assert unreached == [], (
        "modules in src/repro that no entry point, benchmark or example "
        f"reaches (only tests read them): {unreached}"
    )
