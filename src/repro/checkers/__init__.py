"""repro-lint: the codebase checks itself (static analysis subsystem).

Tulkun verifies a network's data plane by distributing small checkers
onto every device; this package applies the same philosophy to the
reproduction's own code.  Two analyzer families, stdlib ``ast`` only:

* :mod:`repro.checkers.asyncsafety` -- event-loop safety (ASYNC001-005):
  blocking calls in coroutines, unawaited coroutines, dropped task
  handles, sync locks across ``await``, cross-thread loop touches.
* :mod:`repro.checkers.hygiene` -- exception and API hygiene (EXC001,
  HYG001-002).

A second, semantic tier (``python -m repro verify-static``) reasons
about behavior instead of text:

* :mod:`repro.checkers.modelcheck` -- exhaustively explores the
  two-peer-session product of ``SESSION_TRANSITIONS``, the table
  ``PeerSession._fire`` executes (FSM001, 002).
* :mod:`repro.checkers.callgraph` -- a module-resolving call graph
  with fixpoint fact propagation: blocking calls reachable from
  coroutines through sync helpers, locks held across transitive
  event-loop waits, fire-and-forget tasks that can raise unobserved
  (ASYNC009-011).

The DVM wire format and the fleet control protocol need no checker:
every frame kind is one row of the schema in :mod:`repro.dvm.messages`
and every control op one row of :data:`repro.fleet.control.OPS`; the
code on both ends is driven by the row.

Run via ``python -m repro lint`` / ``python -m repro verify-static``
(see :mod:`repro.checkers.cli`) or the library APIs :func:`run_lint`
and :func:`run_verify_static`; ``--sarif`` emits SARIF 2.1.0 via
:mod:`repro.checkers.sarif`.  The rule catalog with rationale and
examples lives in ``docs/STATIC_ANALYSIS.md``.
"""

from repro.checkers.callgraph import analyze_callgraph, summarize_module
from repro.checkers.engine import RULES, LintReport, lint_file, run_lint
from repro.checkers.findings import Finding, parse_suppressions
from repro.checkers.modelcheck import check_model, explore_product
from repro.checkers.sarif import sarif_document, write_sarif
from repro.checkers.verifystatic import (
    VERIFY_RULES,
    VerifyReport,
    run_verify_static,
)

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "VERIFY_RULES",
    "VerifyReport",
    "analyze_callgraph",
    "check_model",
    "explore_product",
    "lint_file",
    "parse_suppressions",
    "run_lint",
    "run_verify_static",
    "sarif_document",
    "summarize_module",
    "write_sarif",
]
