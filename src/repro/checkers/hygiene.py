"""Per-file hygiene rules (EXC001, OBS001).

* **EXC001** -- a broad handler (``except:``, ``except Exception``,
  ``except BaseException``) whose body neither re-raises, logs, records
  a metric, nor even reads the caught exception.  Such handlers turn
  real faults (a decode bug, a cancelled task, a typo'd attribute) into
  silent state divergence -- the exact failure mode a distributed
  verifier exists to prevent.
* **OBS001** -- a bare ``print(`` in library code.  Library output must
  go through :mod:`repro.obs.log` (structured, filterable, JSON-capable);
  only the CLI front-ends (any ``cli.py``) and the table renderer
  (``bench/reporting.py``) own stdout, where a stray line corrupts the
  ``--json`` documents they print.
"""

from __future__ import annotations

import ast
from typing import List

from repro.checkers.callgraph import terminal_name
from repro.checkers.findings import Finding

#: Call-name fragments that indicate the handler surfaces the error.
_HANDLING_TOKENS = ("log", "warn", "print", "record", "metric", "report", "emit", "trace")
_HANDLING_EXACT = {"exception", "error", "debug", "info", "critical", "fail", "abort"}

#: Files that own stdout (OBS001 does not apply).
_PRINT_EXEMPT_BASENAMES = {"cli.py"}
_PRINT_EXEMPT_SUFFIXES = ("bench/reporting.py",)


def _print_exempt(path: str) -> bool:
    posix = path.replace("\\", "/")
    if posix.rsplit("/", 1)[-1] in _PRINT_EXEMPT_BASENAMES:
        return True
    return posix.endswith(_PRINT_EXEMPT_SUFFIXES)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    candidates = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        terminal_name(candidate) in ("Exception", "BaseException")
        for candidate in candidates
    )


def _swallows(handler: ast.ExceptHandler) -> bool:
    for child in ast.walk(handler):
        if isinstance(child, ast.Raise):
            return False
        if isinstance(child, ast.AugAssign) and isinstance(
            child.target, ast.Attribute
        ):
            return False  # a counter increment records the event
        if (
            handler.name is not None
            and isinstance(child, ast.Name)
            and child.id == handler.name
            and isinstance(child.ctx, ast.Load)
        ):
            return False  # the exception object is used somewhere
        if isinstance(child, ast.Call):
            name = (terminal_name(child.func) or "").lower()
            if name in _HANDLING_EXACT or any(
                token in name for token in _HANDLING_TOKENS
            ):
                return False
    return True


def check_hygiene(path: str, tree: ast.Module) -> List[Finding]:
    """EXC001 and OBS001 over one parsed file."""
    findings: List[Finding] = []
    stdout_owner = _print_exempt(path)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad(node)
            and _swallows(node)
        ):
            caught = (
                "bare 'except:'"
                if node.type is None
                else f"'except {ast.unparse(node.type)}'"
            )
            findings.append(
                Finding(
                    path, node.lineno, node.col_offset + 1, "EXC001",
                    f"{caught} swallows the exception: nothing is "
                    "re-raised, logged, or recorded",
                    "narrow the exception type and record it (log or "
                    "metrics counter), or re-raise",
                )
            )
        elif (
            not stdout_owner
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            findings.append(
                Finding(
                    path, node.lineno, node.col_offset + 1, "OBS001",
                    "bare print() in library code bypasses structured "
                    "logging",
                    "use repro.obs.log.get_logger(...).info/debug with "
                    "kv(...), or move the output into a CLI front-end",
                )
            )
    return findings
