"""The repo's own source must stay lint-clean, and every module and every
definition under ``src/repro`` must have a reader outside the tests.

The first gate is the one the analyzer exists for: any PR that puts a
blocking call on the event loop or adds a swallowing handler fails here
(and in the CI lint job) with a file:line finding.  There is no inline
suppression: a finding is fixed, or the rule is argued away in
``docs/STATIC_ANALYSIS.md``.

The other two hold dead code to the same zero budget, with no
allow-list: a module must be reached from a program, a benchmark or an
example, and a function, method or class must be read by name from
``src/``, ``benchmarks/`` or ``examples/`` -- a definition whose only
reader is its own test polices nothing and documents nothing.
"""

import ast
import shutil
from collections import deque
from pathlib import Path

from repro.checkers import run_lint
from repro.checkers.callgraph import _Imports, module_name_for

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Modules run as programs: ``python -m repro`` and the worker processes
#: ``FleetLauncher`` spawns with ``python -m repro.fleet.worker``.
ENTRY_POINTS = ("repro.__main__", "repro.fleet.worker")

#: Where a read counts: code that runs, not its tests.
READERS = ("src", "benchmarks", "examples")


def test_src_is_lint_clean():
    report = run_lint([ROOT / "src"])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"repro-lint findings:\n{rendered}"
    assert report.errors == []
    assert report.files_scanned > 50  # the whole tree was actually walked
    assert report.functions_indexed > 500
    assert report.call_edges > 500


def test_protocol_rules_ran_against_src():
    """Scanning src/ locates the repo root, so findings name
    repo-relative paths."""
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


def _names_read(root: Path):
    """Every name the code under ``READERS`` reads, and the prefixes of
    its ``getattr(target, f"prefix{name}")`` dispatch.

    A read is a loaded name or attribute, or a name imported or an
    identifier-shaped string (tables name the methods they dispatch to)
    outside a package ``__init__``, whose re-exports declare names
    rather than read them.
    """
    reads, prefixes = set(), set()
    for directory in READERS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            declares = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    reads.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not declares:
                    reads.update(alias.name for alias in node.names)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and not declares
                ):
                    reads.add(node.value)
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.JoinedStr)
                    and isinstance(node.args[1].values[0], ast.Constant)
                ):
                    prefixes.add(node.args[1].values[0].value)
    return reads, tuple(prefixes)


def unread_definitions(root: Path):
    """``path:line name`` of every function, method and class under
    ``root/src/repro`` whose name nothing under ``READERS`` reads."""
    reads, prefixes = _names_read(root)
    unread = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bodies = [tree.body]
        while bodies:
            for node in bodies.pop():
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name not in reads and not name.startswith(prefixes):
                    relative = path.relative_to(root).as_posix()
                    unread.append(f"{relative}:{node.lineno} {name}")
    return sorted(unread)


def test_every_src_definition_is_read_outside_tests():
    unread = unread_definitions(ROOT)
    assert unread == [], (
        "definitions in src/repro that nothing in src/, benchmarks/ or "
        f"examples/ reads (only tests do): {unread}"
    )


def test_definition_gate_fails_on_a_function_only_tests_read(tmp_path):
    for directory in READERS:
        for path in (ROOT / directory).rglob("*.py"):
            copy = tmp_path / path.relative_to(ROOT)
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, copy)
    (tmp_path / "src" / "repro" / "extras.py").write_text(
        "def only_tested(value):\n    return value\n", encoding="utf-8"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_extras.py").write_text(
        "from repro.extras import only_tested\n\n\n"
        "def test_it():\n    assert only_tested(1) == 1\n",
        encoding="utf-8",
    )
    assert unread_definitions(tmp_path) == [
        "src/repro/extras.py:1 only_tested"
    ]
