"""repro-lint: the codebase checks itself (static analysis subsystem).

Tulkun verifies a network's data plane by distributing small checkers
onto every device; this package applies the same philosophy to the
reproduction's own code.  One command (``python -m repro lint``, see
:mod:`repro.checkers.cli`) parses each file once and runs every rule,
stdlib ``ast`` only:

* :mod:`repro.checkers.hygiene` -- per-file rules: swallowing broad
  handlers (EXC001) and bare ``print`` in library code (OBS001);
* :mod:`repro.checkers.callgraph` -- a module-resolving call graph over
  the whole scan: blocking calls on the event loop, directly or through
  sync helpers (ASYNC009), coroutines never awaited (ASYNC002) and task
  handles with no sink (ASYNC003).

Each rule is kept because it caught a defect the test suite missed;
``docs/STATIC_ANALYSIS.md`` records which, and which rules were deleted.
"""

from repro.checkers.callgraph import CallGraph, summarize_module
from repro.checkers.engine import RULES, LintReport, run_lint
from repro.checkers.findings import Finding

__all__ = [
    "CallGraph",
    "Finding",
    "LintReport",
    "RULES",
    "run_lint",
    "summarize_module",
]
