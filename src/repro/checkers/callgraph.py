"""Tier-3 whole-program call-graph analysis (ASYNC009-ASYNC011).

The tier-1 async rules are deliberately intraprocedural: they flag a
blocking call *inside* an ``async def``, never one hidden behind a sync
helper.  This module closes that gap with a module-resolving call graph
over the scanned tree:

* every function gets a :class:`FunctionSummary` (blocking call sites,
  event-loop re-entry sites, unshielded ``raise`` sites, spawned tasks,
  resolved call sites with their lock context), built per file;
* call references are resolved against a global index -- module-level
  functions, imported names (absolute and relative imports),
  ``self.method()`` with base-class lookup, and ``self.attr.method()``
  through constructor-assignment attribute typing
  (``self.x = SomeClass(...)``);
* reachability facts are propagated to a fixpoint with breadth-first
  search over the reverse graph, so every finding carries a *shortest*
  call path as evidence.

Rules:

* **ASYNC009** -- a blocking call (tier 1's ``BLOCKING_CALLS`` /
  ``BLOCKING_MODULES`` vocabulary) is reachable from a coroutine
  through a chain of one or more synchronous helpers.  The finding
  anchors at the coroutine's call site and renders the full chain.
* **ASYNC010** -- a synchronous lock is held around a call whose callee
  transitively re-enters the event loop (``run_until_complete``,
  ``asyncio.run``, or ``run_coroutine_threadsafe(...).result()``):
  awaiting by proxy while holding a lock is the transitive version of
  ASYNC004.
* **ASYNC011** -- a task is spawned on a coroutine that can raise
  (an unshielded ``raise`` reachable through awaited calls) while the
  task handle has no exception sink: it is dropped outright, or bound
  to a name/attribute that is never read again, so the exception is
  lost with the handle.

Like every checker in this package the analysis is pure ``ast`` -- the
scanned code is never imported -- and resolution is deliberately
conservative: an unresolvable callee contributes no edge, so every
reported path is a real chain of definitions in the scanned tree.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checkers.asyncsafety import (
    BLOCKING_CALLS,
    BLOCKING_MODULES,
    SYNC_LOCK_TYPES,
    _dotted_name,
    _terminal_name,
)
from repro.checkers.findings import Finding

__all__ = [
    "CallGraph",
    "CallGraphReport",
    "FunctionSummary",
    "ModuleSummary",
    "analyze_callgraph",
    "module_name_for",
    "package_root",
    "summarize_module",
]

#: Synchronous calls that re-enter the event loop ("await by proxy").
PROXY_AWAIT_TERMINALS = {"run_until_complete"}
PROXY_AWAIT_RESOLVED = {"asyncio.run"}

#: Task-spawning entry points (same vocabulary as tier 1's ASYNC003).
SPAWN_TERMINALS = {"create_task", "ensure_future"}

#: Longest rendered evidence chain (cycles are cut by BFS already;
#: this only bounds pathological hand-written graphs).
_MAX_CHAIN = 64

#: A resolution reference recorded by the per-file summarizer and
#: resolved by the global graph: ("local", name), ("abs", dotted),
#: ("method", class, name) or ("attrmethod", class, attr, name).
Ref = Tuple[str, ...]

#: A reachability witness: ("direct", text, line) at the fact itself,
#: or ("via", call line, callee qualname) one hop up the chain.
Witness = Tuple[object, ...]


@dataclass
class CallSite:
    """One resolved-or-not call expression inside a function body."""

    ref: Optional[Ref]
    raw: str
    line: int
    col: int
    awaited: bool
    shielded: bool
    lock: Optional[Tuple[str, int]]
    #: Global qualname, filled in by :class:`CallGraph`.
    resolved: Optional[str] = None


@dataclass
class SpawnSite:
    """One ``create_task`` / ``ensure_future`` call with its handle."""

    coro_ref: Optional[Ref]
    raw: str
    line: int
    col: int
    #: ("bare", "") | ("local", name) | ("attr", name)
    handle: Tuple[str, str] = ("bare", "")


@dataclass
class FunctionSummary:
    """Everything tier 3 needs to know about one function."""

    module: str
    display: str
    path: str
    line: int
    is_async: bool
    blocking: List[Tuple[str, int, int]] = field(default_factory=list)
    proxies: List[Tuple[str, int, int, Optional[Tuple[str, int]]]] = field(
        default_factory=list
    )
    raises: List[int] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    loads: Set[str] = field(default_factory=set)


@dataclass
class ClassSummary:
    """One class: methods, base refs, constructor-typed attributes."""

    name: str
    line: int
    methods: Set[str] = field(default_factory=set)
    bases: List[Ref] = field(default_factory=list)
    attr_types: Dict[str, Ref] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The per-file extraction result."""

    module: str
    display: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    attr_loads: Set[str] = field(default_factory=set)


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
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved


def _lockish_name(expr: ast.AST) -> Optional[str]:
    """The lock's display name when the with-item looks like a sync lock."""
    if isinstance(expr, ast.Call):
        name = _terminal_name(expr.func)
        return name if name in SYNC_LOCK_TYPES else None
    name = _terminal_name(expr)
    if name is None:
        return None
    lowered = name.lower()
    if "lock" in lowered or "mutex" in lowered:
        return _dotted_name(expr) or name
    return None


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = (
        [_terminal_name(elt) for elt in handler.type.elts]
        if isinstance(handler.type, ast.Tuple)
        else [_terminal_name(handler.type)]
    )
    return any(name in ("Exception", "BaseException") for name in names)


class _FunctionWalker:
    """Collects one function's summary facts with lock/try context."""

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
        self._awaited: Set[int] = set()

    def run(self, function: ast.AST) -> None:
        for child in ast.iter_child_nodes(function):
            if isinstance(child, ast.arguments):
                continue
            self._visit(child, None, False)

    # -- reference building -------------------------------------------------

    def _call_ref(self, func: ast.AST) -> Optional[Ref]:
        if isinstance(func, ast.Name):
            if func.id in self.local_defs:
                return ("local", func.id)
            target = self.imports.aliases.get(func.id)
            return ("abs", target) if target else None
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and self.class_name is not None:
            if len(parts) == 2:
                return ("method", self.class_name, parts[1])
            if len(parts) == 3:
                return ("attrmethod", self.class_name, parts[1], parts[2])
            return None
        target = self.imports.aliases.get(parts[0])
        if target is not None:
            return ("abs", ".".join([target] + parts[1:]))
        return None

    # -- traversal ----------------------------------------------------------

    def _visit(
        self,
        node: ast.AST,
        lock: Optional[Tuple[str, int]],
        shielded: bool,
    ) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, ast.With):
            acquired = lock
            for item in node.items:
                name = _lockish_name(item.context_expr)
                if name is not None and acquired is lock:
                    acquired = (name, node.lineno)
                self._visit(item.context_expr, lock, shielded)
            for stmt in node.body:
                self._visit(stmt, acquired, shielded)
            return
        if isinstance(node, ast.Try):
            broad = any(_is_broad_handler(h) for h in node.handlers)
            inner = shielded or broad
            for stmt in node.body:
                self._visit(stmt, lock, inner)
            for stmt in node.orelse:
                self._visit(stmt, lock, inner)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._visit(stmt, lock, shielded)
            for stmt in node.finalbody:
                self._visit(stmt, lock, shielded)
            return
        if isinstance(node, ast.Raise) and not shielded:
            self.summary.raises.append(node.lineno)
        if isinstance(node, ast.Await) and isinstance(
            node.value, ast.Call
        ):
            self._awaited.add(id(node.value))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.Call) and self._is_spawn(value):
                target = (
                    node.targets[0]
                    if isinstance(node, ast.Assign) and node.targets
                    else getattr(node, "target", None)
                )
                self._record_spawn(value, target)
        if isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Call
        ):
            if self._is_spawn(node.value):
                self._record_spawn(node.value, None)
        if isinstance(node, ast.Call):
            self._handle_call(node, lock, shielded)
        for child in ast.iter_child_nodes(node):
            self._visit(child, lock, shielded)

    # -- fact recording -----------------------------------------------------

    def _is_spawn(self, call: ast.Call) -> bool:
        return _terminal_name(call.func) in SPAWN_TERMINALS

    def _record_spawn(
        self, call: ast.Call, target: Optional[ast.AST]
    ) -> None:
        coro_ref: Optional[Ref] = None
        if call.args and isinstance(call.args[0], ast.Call):
            coro_ref = self._call_ref(call.args[0].func)
        handle: Optional[Tuple[str, str]] = ("bare", "")
        if isinstance(target, ast.Name):
            handle = ("local", target.id)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            handle = ("attr", target.attr)
        elif target is not None:
            handle = None  # tuple target etc.: assume consumed
        if handle is None:
            return
        self.summary.spawns.append(
            SpawnSite(
                coro_ref=coro_ref,
                raw=_dotted_name(call.func) or "create_task",
                line=call.lineno,
                col=call.col_offset + 1,
                handle=handle,
            )
        )

    def _handle_call(
        self,
        call: ast.Call,
        lock: Optional[Tuple[str, int]],
        shielded: bool,
    ) -> None:
        func = call.func
        terminal = _terminal_name(func)
        if terminal in SPAWN_TERMINALS:
            return
        resolved = self.imports.resolve(func)
        blocked: Optional[str] = None
        if resolved in BLOCKING_CALLS:
            blocked = resolved
        elif resolved is not None and any(
            resolved == mod or resolved.startswith(mod + ".")
            for mod in BLOCKING_MODULES
        ):
            blocked = resolved
        elif resolved in ("open", "io.open"):
            blocked = "open"
        if blocked is not None:
            self.summary.blocking.append(
                (blocked, call.lineno, call.col_offset + 1)
            )
            return
        proxy: Optional[str] = None
        if resolved in PROXY_AWAIT_RESOLVED:
            proxy = resolved
        elif terminal in PROXY_AWAIT_TERMINALS:
            proxy = _dotted_name(func) or terminal
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "result"
            and isinstance(func.value, ast.Call)
            and _terminal_name(func.value.func)
            == "run_coroutine_threadsafe"
        ):
            proxy = "run_coroutine_threadsafe(...).result"
        if proxy is not None:
            self.summary.proxies.append(
                (proxy, call.lineno, call.col_offset + 1, lock)
            )
            return
        ref = self._call_ref(func)
        if ref is None:
            return
        self.summary.calls.append(
            CallSite(
                ref=ref,
                raw=_dotted_name(func) or terminal or "<call>",
                line=call.lineno,
                col=call.col_offset + 1,
                awaited=id(call) in self._awaited,
                shielded=shielded,
                lock=lock,
            )
        )


def summarize_module(
    source: str,
    display: str,
    module_name: str,
    is_package: bool = False,
) -> ModuleSummary:
    """Parse one file into its :class:`ModuleSummary` (raises on bad syntax)."""
    tree = ast.parse(source, filename=display)
    imports = _Imports(tree, module_name, is_package)
    summary = ModuleSummary(module=module_name, display=display)
    local_defs = {
        node.name
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            summary.attr_loads.add(node.attr)

    def _summarize_function(
        fn: ast.AST, display_name: str, class_name: Optional[str]
    ) -> FunctionSummary:
        function = FunctionSummary(
            module=module_name,
            display=display_name,
            path=display,
            line=fn.lineno,  # type: ignore[attr-defined]
            is_async=isinstance(fn, ast.AsyncFunctionDef),
        )
        walker = _FunctionWalker(function, imports, local_defs, class_name)
        walker.run(fn)
        function.loads = {
            child.id
            for child in ast.walk(fn)
            if isinstance(child, ast.Name)
            and isinstance(child.ctx, ast.Load)
        }
        return function

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = _summarize_function(
                node, node.name, None
            )
        elif isinstance(node, ast.ClassDef):
            klass = ClassSummary(name=node.name, line=node.lineno)
            for base in node.bases:
                if isinstance(base, ast.Name):
                    if base.id in local_defs:
                        klass.bases.append(("local", base.id))
                    elif base.id in imports.aliases:
                        klass.bases.append(
                            ("abs", imports.aliases[base.id])
                        )
                else:
                    dotted = imports.resolve(base)
                    if dotted is not None:
                        klass.bases.append(("abs", dotted))
            for child in node.body:
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                klass.methods.add(child.name)
                key = f"{node.name}.{child.name}"
                summary.functions[key] = _summarize_function(
                    child, key, node.name
                )
                for stmt in ast.walk(child):
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Attribute)
                        and isinstance(stmt.targets[0].value, ast.Name)
                        and stmt.targets[0].value.id == "self"
                        and isinstance(stmt.value, ast.Call)
                    ):
                        ctor = stmt.value.func
                        ref: Optional[Ref] = None
                        if isinstance(ctor, ast.Name):
                            if ctor.id in local_defs:
                                ref = ("local", ctor.id)
                            elif ctor.id in imports.aliases:
                                ref = ("abs", imports.aliases[ctor.id])
                        else:
                            dotted = imports.resolve(ctor)
                            if dotted is not None:
                                ref = ("abs", dotted)
                        if ref is not None:
                            klass.attr_types.setdefault(
                                stmt.targets[0].attr, ref
                            )
            summary.classes[node.name] = klass
    return summary


# -- the global graph -------------------------------------------------------


@dataclass
class CallGraphReport:
    """Interprocedural findings plus graph-size evidence for --stats."""

    findings: Dict[str, List[Finding]] = field(default_factory=dict)
    functions_indexed: int = 0
    call_edges: int = 0


class CallGraph:
    """Global function index + fixpoint reachability over the summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for module in modules:
            self.modules[module.module] = module
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, Tuple[str, ClassSummary]] = {}
        for module in self.modules.values():
            for local, function in module.functions.items():
                self.functions[f"{module.module}.{local}"] = function
            for local, klass in module.classes.items():
                self.classes[f"{module.module}.{local}"] = (
                    module.module,
                    klass,
                )
        self.call_edges = 0
        for qual in sorted(self.functions):
            function = self.functions[qual]
            module = self.modules[function.module]
            for site in function.calls:
                site.resolved = self._resolve_ref(module, site.ref)
                if site.resolved is not None:
                    self.call_edges += 1

    # -- reference resolution -----------------------------------------------

    def _resolve_ref(
        self, module: ModuleSummary, ref: Optional[Ref]
    ) -> Optional[str]:
        if ref is None:
            return None
        kind = ref[0]
        if kind == "local":
            name = str(ref[1])
            if name in module.functions:
                return f"{module.module}.{name}"
            if name in module.classes:
                return self._method(f"{module.module}.{name}", "__init__")
            return None
        if kind == "abs":
            dotted = str(ref[1])
            if dotted in self.functions:
                return dotted
            if dotted in self.classes:
                return self._method(dotted, "__init__")
            head, _, last = dotted.rpartition(".")
            if head in self.classes:
                return self._method(head, last)
            return None
        if kind == "method":
            qual = f"{module.module}.{ref[1]}"
            return self._method(qual, str(ref[2]))
        if kind == "attrmethod":
            qual = f"{module.module}.{ref[1]}"
            target = self._attr_type(qual, str(ref[2]))
            if target is None:
                return None
            return self._method(target, str(ref[3]))
        return None

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
            for base in klass.bases:
                if base[0] == "local":
                    queue.append(f"{module_name}.{base[1]}")
                elif base[0] == "abs":
                    queue.append(str(base[1]))
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
            if ref[0] == "local":
                qual = f"{module_name}.{ref[1]}"
            else:
                qual = str(ref[1])
            if qual in self.classes:
                return qual
        return None

    # -- fixpoint propagation -----------------------------------------------

    def _propagate(
        self,
        seeds: Dict[str, Witness],
        sync_chain_only: bool,
    ) -> Dict[str, Witness]:
        """BFS reachability up the reverse call graph, shortest first.

        ``sync_chain_only`` restricts both endpoints of each hop to
        synchronous functions: the fact must execute inline in the
        caller's frame (blocking / proxy-await propagation).  Otherwise
        a hop also executes through an *awaited* async callee
        (exception propagation), and shielded sites never propagate.
        """
        callers: Dict[str, List[Tuple[str, int]]] = {}
        for qual in sorted(self.functions):
            function = self.functions[qual]
            if sync_chain_only and function.is_async:
                continue
            for site in function.calls:
                callee = site.resolved
                if callee is None:
                    continue
                target = self.functions[callee]
                if sync_chain_only:
                    if target.is_async:
                        continue
                else:
                    if site.shielded:
                        continue
                    if target.is_async and not site.awaited:
                        continue
                callers.setdefault(callee, []).append((qual, site.line))
        reach = dict(seeds)
        queue = deque(sorted(seeds))
        while queue:
            callee = queue.popleft()
            for caller, line in callers.get(callee, []):
                if caller not in reach:
                    reach[caller] = ("via", line, callee)
                    queue.append(caller)
        return reach

    def _chain(
        self, reach: Dict[str, Witness], start: str
    ) -> Tuple[List[str], str]:
        """Rendered hop list and the terminal fact text for ``start``."""
        parts: List[str] = []
        current = start
        terminal = ""
        for _ in range(_MAX_CHAIN):
            witness = reach[current]
            function = self.functions[current]
            if witness[0] == "direct":
                terminal = str(witness[1])
                parts.append(
                    f"{terminal} ({function.path}:{witness[2]})"
                )
                break
            callee = str(witness[2])
            target = self.functions[callee]
            parts.append(
                f"{target.display} ({function.path}:{witness[1]})"
            )
            current = callee
        return parts, terminal

    # -- rules --------------------------------------------------------------

    def check(self) -> CallGraphReport:
        report = CallGraphReport(
            functions_indexed=len(self.functions),
            call_edges=self.call_edges,
        )

        blocking_seeds: Dict[str, Witness] = {}
        proxy_seeds: Dict[str, Witness] = {}
        raise_seeds: Dict[str, Witness] = {}
        for qual in sorted(self.functions):
            function = self.functions[qual]
            if function.blocking and not function.is_async:
                text, line, _col = function.blocking[0]
                blocking_seeds[qual] = ("direct", text, line)
            if function.proxies and not function.is_async:
                text, line, _col, _lock = function.proxies[0]
                proxy_seeds[qual] = ("direct", text, line)
            if function.raises:
                raise_seeds[qual] = (
                    "direct",
                    "raise",
                    min(function.raises),
                )
        blocking_reach = self._propagate(
            blocking_seeds, sync_chain_only=True
        )
        proxy_reach = self._propagate(proxy_seeds, sync_chain_only=True)
        raise_reach = self._propagate(raise_seeds, sync_chain_only=False)

        def _emit(path: str, finding: Finding) -> None:
            report.findings.setdefault(path, []).append(finding)

        for qual in sorted(self.functions):
            function = self.functions[qual]

            # ASYNC009: coroutine -> sync helper chain -> blocking call.
            if function.is_async:
                flagged: Set[str] = set()
                for site in function.calls:
                    callee = site.resolved
                    if (
                        callee is None
                        or callee in flagged
                        or callee not in blocking_reach
                        or self.functions[callee].is_async
                    ):
                        continue
                    flagged.add(callee)
                    parts, terminal = self._chain(blocking_reach, callee)
                    chain = " -> ".join(parts)
                    _emit(
                        function.path,
                        Finding(
                            path=function.path,
                            line=site.line,
                            col=site.col,
                            rule="ASYNC009",
                            message=(
                                f"blocking call '{terminal}' is reachable "
                                f"from 'async def {function.display}' "
                                f"through sync helpers: {chain}"
                            ),
                            hint=(
                                "make the helper chain async, or move the "
                                "blocking step into run_in_executor"
                            ),
                        ),
                    )

            # ASYNC010: lock held across a transitive event-loop wait.
            for site in function.calls:
                callee = site.resolved
                if (
                    site.lock is None
                    or callee is None
                    or callee not in proxy_reach
                    or self.functions[callee].is_async
                ):
                    continue
                parts, terminal = self._chain(proxy_reach, callee)
                chain = " -> ".join(parts)
                lock_name, lock_line = site.lock
                _emit(
                    function.path,
                    Finding(
                        path=function.path,
                        line=site.line,
                        col=site.col,
                        rule="ASYNC010",
                        message=(
                            f"lock '{lock_name}' (held since line "
                            f"{lock_line}) is held across an event-loop "
                            f"wait in {function.display}: {chain}"
                        ),
                        hint=(
                            "release the lock before re-entering the "
                            "event loop, or restructure the callee so "
                            "the wait happens outside the critical "
                            "section"
                        ),
                    ),
                )
            for text, line, col, lock in function.proxies:
                if lock is None:
                    continue
                lock_name, lock_line = lock
                _emit(
                    function.path,
                    Finding(
                        path=function.path,
                        line=line,
                        col=col,
                        rule="ASYNC010",
                        message=(
                            f"lock '{lock_name}' (held since line "
                            f"{lock_line}) is held across the event-loop "
                            f"wait '{text}' in {function.display}"
                        ),
                        hint=(
                            "release the lock before re-entering the "
                            "event loop"
                        ),
                    ),
                )

            # ASYNC011: spawned coroutine can raise; handle has no sink.
            for spawn in function.spawns:
                module = self.modules[function.module]
                coro = self._resolve_ref(module, spawn.coro_ref)
                if (
                    coro is None
                    or not self.functions[coro].is_async
                    or coro not in raise_reach
                ):
                    continue
                kind, name = spawn.handle
                if kind == "local" and name in function.loads:
                    continue
                if kind == "attr" and name in module.attr_loads:
                    continue
                parts, _terminal = self._chain(raise_reach, coro)
                chain = " -> ".join(
                    [self.functions[coro].display] + parts
                )
                if kind == "bare":
                    sink = "the handle is dropped outright"
                else:
                    sink = f"handle '{name}' is never read again"
                _emit(
                    function.path,
                    Finding(
                        path=function.path,
                        line=spawn.line,
                        col=spawn.col,
                        rule="ASYNC011",
                        message=(
                            f"task spawned on "
                            f"'{self.functions[coro].display}' can raise "
                            f"({chain}) but {sink}: the exception is "
                            "lost with the task"
                        ),
                        hint=(
                            "await or gather the handle on teardown, "
                            "add add_done_callback, or shield the "
                            "coroutine body with its own handler"
                        ),
                    ),
                )

        for path in report.findings:
            report.findings[path].sort()
        return report


def analyze_callgraph(
    modules: Sequence[ModuleSummary],
) -> CallGraphReport:
    """Resolve, propagate to fixpoint, and run ASYNC009-ASYNC011."""
    return CallGraph(modules).check()
