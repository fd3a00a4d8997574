"""Whole-program async-safety analysis (ASYNC002, ASYNC003, ASYNC009).

Each scanned file is summarized once into a :class:`ModuleSummary`:
every function and method with its blocking call sites, its call
sites (resolved or not) and its spawned tasks.  Call references are
resolved against a global index -- module-level functions, imported
names (absolute and relative imports), ``self.method()`` with base-class
lookup, and ``self.attr.method()`` through constructor-assignment
attribute typing (``self.x = SomeClass(...)``).  An unresolvable callee
contributes no edge, so every reported chain is a real chain of
definitions in the scanned tree; the analysis trades recall for a zero
false-positive contract.

Rules:

* **ASYNC009** -- a blocking call (:data:`BLOCKING_CALLS`, any call into
  :data:`BLOCKING_MODULES`, ``open``) runs on the event loop: directly in
  an ``async def``, or in a sync helper reachable from one through sync
  calls only (an ``async`` hop hands control back to the loop).  The
  finding anchors at the coroutine's call site and spells out the chain
  hop by hop, found by breadth-first search over the reverse graph, so
  it is a shortest one.
* **ASYNC002** -- a call that resolves to an ``async def`` is a bare
  statement: the coroutine object is built and dropped, and its body
  never runs.
* **ASYNC003** -- a ``create_task`` / ``ensure_future`` handle has no
  sink: dropped as a bare statement, or bound to a local name never
  read again in the function or to an attribute never read in the
  module.  The task can be garbage-collected mid-flight, nothing can
  cancel it, and its exception dies with it.

The scanned code is never imported.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checkers.findings import Finding

#: Fully-qualified callables that block the calling thread.
BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.waitpid",
    "select.select",
    "shutil.copyfile",
    "shutil.copytree",
    "open",
    "io.open",
}

#: Any call into these modules does synchronous I/O.
BLOCKING_MODULES = ("socket", "subprocess", "requests", "urllib.request", "http.client")

#: Task-spawning entry points.
SPAWN_TERMINALS = {"create_task", "ensure_future"}

#: A resolution reference recorded by the per-file summarizer and
#: resolved by the global graph: ("local", name), ("abs", dotted),
#: ("method", class, name) or ("attrmethod", class, attr, name).
Ref = Tuple[str, ...]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class CallSite:
    """One call expression inside a function body."""

    ref: Ref
    line: int
    col: int
    #: The call is a bare expression statement (its value is dropped).
    discarded: bool
    #: Global qualname, filled in by :class:`CallGraph`.
    resolved: Optional[str] = None


@dataclass
class FunctionSummary:
    """Everything the rules need to know about one function."""

    module: str
    display: str
    path: str
    is_async: bool
    blocking: List[Tuple[str, int, int]] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: methods, base refs, constructor-typed attributes."""

    name: str
    methods: Set[str] = field(default_factory=set)
    bases: List[Ref] = field(default_factory=list)
    attr_types: Dict[str, Ref] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The per-file extraction result, with the file's ASYNC003 findings."""

    module: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)


# -- module naming ----------------------------------------------------------


def package_root(directory: Path) -> Path:
    """Walk up out of ``__init__.py`` packages to the import root."""
    current = directory
    while (current / "__init__.py").is_file():
        parent = current.parent
        if parent == current:
            break
        current = parent
    return current


def module_name_for(path: Path, roots: Sequence[Path]) -> str:
    """Dotted module name of ``path`` relative to the owning scan root."""
    resolved = path.resolve()
    for root in roots:
        try:
            relative = resolved.relative_to(root.resolve())
        except ValueError:
            continue
        parts = list(relative.parts)
        parts[-1] = parts[-1][: -len(".py")]
        if parts[-1] == "__init__":
            parts.pop()
        if parts:
            return ".".join(parts)
    return path.stem


# -- per-file summarization -------------------------------------------------


class _Imports:
    """Alias table resolving local names to absolute dotted targets."""

    def __init__(
        self, module: ast.Module, module_name: str, is_package: bool
    ) -> None:
        self.aliases: Dict[str, str] = {}
        package = (
            module_name if is_package else module_name.rpartition(".")[0]
        )
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = package.split(".") if package else []
                    keep = len(parts) - (node.level - 1)
                    if keep < 0:
                        continue
                    anchor = parts[:keep]
                    base = ".".join(
                        anchor + ([node.module] if node.module else [])
                    )
                if not base:
                    continue
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def ref(self, node: ast.AST, local_defs: Set[str]) -> Optional[Ref]:
        """A module-scope reference (``local`` or ``abs``) to ``node``."""
        if isinstance(node, ast.Name) and node.id in local_defs:
            return ("local", node.id)
        dotted = dotted_name(node)
        if dotted is None or dotted.split(".")[0] not in self.aliases:
            return None
        return ("abs", str(self.resolve(node)))


def _blocking_name(resolved: Optional[str]) -> Optional[str]:
    if resolved is None:
        return None
    if resolved in BLOCKING_CALLS:
        return "open" if resolved == "io.open" else resolved
    if any(
        resolved == mod or resolved.startswith(mod + ".")
        for mod in BLOCKING_MODULES
    ):
        return resolved
    return None


class _FunctionWalker:
    """Collects one function's blocking sites, call sites and spawns."""

    def __init__(
        self,
        summary: FunctionSummary,
        imports: _Imports,
        local_defs: Set[str],
        class_name: Optional[str],
    ) -> None:
        self.summary = summary
        self.imports = imports
        self.local_defs = local_defs
        self.class_name = class_name
        #: ``(call, handle)`` per spawn statement: handle is ``None``
        #: for a bare statement, else the Name/Attribute it is bound to.
        self.spawns: List[Tuple[ast.Call, Optional[ast.AST]]] = []

    def run(self, function: ast.AST) -> None:
        for child in ast.iter_child_nodes(function):
            if not isinstance(child, ast.arguments):
                self._visit(child, discarded=False)

    def _call_ref(self, func: ast.AST) -> Optional[Ref]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and self.class_name is not None:
            if len(parts) == 2:
                return ("method", self.class_name, parts[1])
            if len(parts) == 3:
                return ("attrmethod", self.class_name, parts[1], parts[2])
            return None
        return self.imports.ref(func, self.local_defs)

    def _visit(self, node: ast.AST, discarded: bool) -> None:
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            return
        if isinstance(node, (ast.Expr, ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.Call):
                if terminal_name(value.func) in SPAWN_TERMINALS:
                    target = (
                        node.targets[0]
                        if isinstance(node, ast.Assign)
                        else getattr(node, "target", None)
                    )
                    self.spawns.append((value, target))
                if isinstance(node, ast.Expr):
                    self._visit(value, discarded=True)
                    return
        if isinstance(node, ast.Call):
            self._record_call(node, discarded)
        for child in ast.iter_child_nodes(node):
            self._visit(child, discarded=False)

    def _record_call(self, call: ast.Call, discarded: bool) -> None:
        if terminal_name(call.func) in SPAWN_TERMINALS:
            return
        site = (call.lineno, call.col_offset + 1)
        blocked = _blocking_name(self.imports.resolve(call.func))
        if blocked is not None:
            self.summary.blocking.append((blocked, *site))
            return
        ref = self._call_ref(call.func)
        if ref is not None:
            self.summary.calls.append(CallSite(ref, *site, discarded))


def _unsunk_spawns(
    walker: _FunctionWalker, loads: Set[str], attr_loads: Set[str]
) -> List[Tuple[ast.Call, str]]:
    """ASYNC003: spawns whose handle nothing reads, with the reason."""
    unsunk = []
    for call, target in walker.spawns:
        if target is None:
            unsunk.append((call, "the handle is dropped outright"))
        elif isinstance(target, ast.Name) and target.id not in loads:
            unsunk.append((call, f"handle '{target.id}' is never read"))
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.attr not in attr_loads
        ):
            unsunk.append((call, f"handle '{target.attr}' is never read"))
    return unsunk


def summarize_module(
    tree: ast.Module,
    display: str,
    module_name: str,
    is_package: bool = False,
) -> ModuleSummary:
    """One parsed file as a :class:`ModuleSummary`."""
    imports = _Imports(tree, module_name, is_package)
    summary = ModuleSummary(module=module_name)
    local_defs = {
        node.name
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }
    attr_loads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }

    def summarize(fn: ast.AST, key: str, class_name: Optional[str]) -> None:
        function = FunctionSummary(
            module=module_name,
            display=key,
            path=display,
            is_async=isinstance(fn, ast.AsyncFunctionDef),
        )
        walker = _FunctionWalker(function, imports, local_defs, class_name)
        walker.run(fn)
        summary.functions[key] = function
        loads = {
            child.id
            for child in ast.walk(fn)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        for call, reason in _unsunk_spawns(walker, loads, attr_loads):
            summary.findings.append(
                Finding(
                    display, call.lineno, call.col_offset + 1, "ASYNC003",
                    f"task spawned in '{key}' has no sink: {reason}, so "
                    "nothing can cancel it and its exception is lost with it",
                    "keep the handle and cancel or await it on teardown "
                    "(or add a done callback)",
                )
            )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            klass = ClassSummary(name=node.name)
            klass.bases = [
                ref
                for ref in (imports.ref(base, local_defs) for base in node.bases)
                if ref is not None
            ]
            for child in node.body:
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                klass.methods.add(child.name)
                summarize(child, f"{node.name}.{child.name}", node.name)
                for stmt in ast.walk(child):
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Attribute)
                        and dotted_name(stmt.targets[0].value) == "self"
                        and isinstance(stmt.value, ast.Call)
                    ):
                        ref = imports.ref(stmt.value.func, local_defs)
                        if ref is not None:
                            klass.attr_types.setdefault(
                                stmt.targets[0].attr, ref
                            )
            summary.classes[node.name] = klass
    return summary


# -- the global graph -------------------------------------------------------


class CallGraph:
    """Global function index, resolved call edges and the graph rules."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules = {module.module: module for module in modules}
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, Tuple[str, ClassSummary]] = {}
        for module in self.modules.values():
            for local, function in module.functions.items():
                self.functions[f"{module.module}.{local}"] = function
            for local, klass in module.classes.items():
                self.classes[f"{module.module}.{local}"] = (module.module, klass)
        self.call_edges = 0
        for function in self.functions.values():
            module = self.modules[function.module]
            for site in function.calls:
                site.resolved = self._resolve_ref(module, site.ref)
                self.call_edges += site.resolved is not None

    # -- reference resolution -----------------------------------------------

    def _resolve_ref(self, module: ModuleSummary, ref: Ref) -> Optional[str]:
        kind = ref[0]
        if kind == "local":
            qual = f"{module.module}.{ref[1]}"
            if qual in self.functions:
                return qual
            return self._method(qual, "__init__")
        if kind == "abs":
            dotted = ref[1]
            if dotted in self.functions:
                return dotted
            if dotted in self.classes:
                return self._method(dotted, "__init__")
            head, _, last = dotted.rpartition(".")
            return self._method(head, last)
        qual = f"{module.module}.{ref[1]}"
        if kind == "method":
            return self._method(qual, ref[2])
        target = self._attr_type(qual, ref[2])
        return None if target is None else self._method(target, ref[3])

    def _mro(self, class_qual: str) -> List[Tuple[str, ClassSummary]]:
        """The class and its statically-resolvable bases, BFS order."""
        seen: Set[str] = set()
        order: List[Tuple[str, ClassSummary]] = []
        queue = deque([class_qual])
        while queue:
            current = queue.popleft()
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            module_name, klass = self.classes[current]
            order.append((module_name, klass))
            for kind, name in klass.bases:
                queue.append(f"{module_name}.{name}" if kind == "local" else name)
        return order

    def _method(self, class_qual: str, name: str) -> Optional[str]:
        for module_name, klass in self._mro(class_qual):
            if name in klass.methods:
                return f"{module_name}.{klass.name}.{name}"
        return None

    def _attr_type(self, class_qual: str, attr: str) -> Optional[str]:
        for module_name, klass in self._mro(class_qual):
            ref = klass.attr_types.get(attr)
            if ref is None:
                continue
            qual = f"{module_name}.{ref[1]}" if ref[0] == "local" else ref[1]
            if qual in self.classes:
                return qual
        return None

    # -- blocking reachability ----------------------------------------------

    def _blocking_reach(self) -> Dict[str, Tuple[object, ...]]:
        """``sync function -> witness`` for every sync function from
        which a blocking call runs through sync calls only: ``("direct",
        text, line)`` at the call itself, ``("via", line, callee)`` one
        hop up the chain.  Breadth-first, so each chain is a shortest."""
        callers: Dict[str, List[Tuple[str, int]]] = {}
        reach: Dict[str, Tuple[object, ...]] = {}
        for qual in sorted(self.functions):
            function = self.functions[qual]
            if function.is_async:
                continue
            if function.blocking:
                text, line, _col = function.blocking[0]
                reach[qual] = ("direct", text, line)
            for site in function.calls:
                callee = site.resolved
                if callee is not None and not self.functions[callee].is_async:
                    callers.setdefault(callee, []).append((qual, site.line))
        queue = deque(sorted(reach))
        while queue:
            callee = queue.popleft()
            for caller, line in callers.get(callee, []):
                if caller not in reach:
                    reach[caller] = ("via", line, callee)
                    queue.append(caller)
        return reach

    def _chain(
        self, reach: Dict[str, Tuple[object, ...]], start: str
    ) -> Tuple[str, str]:
        """The rendered hop list from ``start`` and the blocking call."""
        parts: List[str] = []
        current = start
        while True:
            witness = reach[current]
            path = self.functions[current].path
            if witness[0] == "direct":
                parts.append(f"{witness[1]} ({path}:{witness[2]})")
                return " -> ".join(parts), str(witness[1])
            current = str(witness[2])
            parts.append(f"{self.functions[current].display} ({path}:{witness[1]})")

    # -- rules --------------------------------------------------------------

    def check(self) -> List[Finding]:
        findings = [f for module in self.modules.values() for f in module.findings]
        reach = self._blocking_reach()
        hint = "make the chain async, or move the blocking step into run_in_executor"
        for qual in sorted(self.functions):
            function = self.functions[qual]
            name = function.display
            if function.is_async:
                for text, line, col in function.blocking:
                    findings.append(
                        Finding(
                            function.path, line, col, "ASYNC009",
                            f"blocking call '{text}' inside 'async def "
                            f"{name}' stalls the event loop",
                            hint,
                        )
                    )
                flagged: Set[str] = set()
                for site in function.calls:
                    callee = site.resolved
                    if callee in reach and callee not in flagged:
                        flagged.add(callee)
                        chain, text = self._chain(reach, callee)
                        findings.append(
                            Finding(
                                function.path, site.line, site.col, "ASYNC009",
                                f"blocking call '{text}' is reachable from "
                                f"'async def {name}' through sync helpers: "
                                f"{chain}",
                                hint,
                            )
                        )
            for site in function.calls:
                callee = site.resolved
                if site.discarded and callee and self.functions[callee].is_async:
                    findings.append(
                        Finding(
                            function.path, site.line, site.col, "ASYNC002",
                            f"coroutine '{self.functions[callee].display}"
                            "(...)' is never awaited: the call builds a "
                            "coroutine object and drops it",
                            "await it, or spawn it with asyncio.create_task "
                            "and keep the handle",
                        )
                    )
        return sorted(findings)
