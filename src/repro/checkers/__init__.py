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

* :mod:`repro.checkers.fsm` + :mod:`repro.checkers.modelcheck` --
  extract the PeerSession lifecycle actually implemented, diff it
  against the declared ``SESSION_TRANSITIONS`` table, and exhaustively
  explore the two-peer-session product space (FSM001, 002, 004).
* :mod:`repro.checkers.raceflow` -- flow-sensitive cross-``await``
  race detection over every coroutine (ASYNC006-008).

The third tier is whole-program, same entry point:

* :mod:`repro.checkers.callgraph` -- a module-resolving call graph
  with fixpoint fact propagation: blocking calls reachable from
  coroutines through sync helpers, locks held across transitive
  event-loop waits, fire-and-forget tasks that can raise unobserved
  (ASYNC009-011).
* :mod:`repro.checkers.controlproto` -- the fleet launcher/worker
  control-op vocabulary cross-checked against dispatch branches,
  response schemas, timeouts, and the ``docs/RUNTIME.md`` table
  (CTRL001-005).
* :mod:`repro.checkers.modelcheck` again -- the launcher x worker
  lifecycle product explored to a fixpoint (FSM005-006).

The DVM wire format needs no checker: every frame kind is one row of
the schema in :mod:`repro.dvm.messages`, from which the one encoder and
the one decoder are driven.

Run via ``python -m repro lint`` / ``python -m repro verify-static``
(see :mod:`repro.checkers.cli`) or the library APIs :func:`run_lint`
and :func:`run_verify_static`; ``--sarif`` emits SARIF 2.1.0 via
:mod:`repro.checkers.sarif`.  The rule catalog with rationale and
examples lives in ``docs/STATIC_ANALYSIS.md``.
"""

from repro.checkers.callgraph import analyze_callgraph, summarize_module
from repro.checkers.controlproto import (
    check_control,
    extract_control_surface,
)
from repro.checkers.engine import RULES, LintReport, lint_file, run_lint
from repro.checkers.findings import Finding, parse_suppressions
from repro.checkers.fsm import check_fsm_tables, extract_session_fsm
from repro.checkers.modelcheck import (
    check_fleet_model,
    check_model,
    explore_fleet,
    explore_product,
    extract_fleet_fsm,
)
from repro.checkers.raceflow import check_raceflow
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
    "check_control",
    "check_fleet_model",
    "check_fsm_tables",
    "check_model",
    "check_raceflow",
    "explore_fleet",
    "explore_product",
    "extract_control_surface",
    "extract_fleet_fsm",
    "extract_session_fsm",
    "lint_file",
    "parse_suppressions",
    "run_lint",
    "run_verify_static",
    "sarif_document",
    "summarize_module",
    "write_sarif",
]
