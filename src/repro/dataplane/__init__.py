"""Data plane substrate: match-action tables and their equivalence classes.

Follows the paper's §2.1 model: each device's data plane is a priority-
ordered match-action table; actions forward to a *group* of next hops
either ALL-type (replicate to every member: multicast/broadcast) or
ANY-type (pick one member by an unknown, vendor-specific rule: ECMP/LAG),
possibly after a header rewrite; an empty group drops.

:mod:`repro.dataplane.lec` compresses a FIB into the minimal table of local
equivalence classes (LECs) the on-device verifier operates on, and computes
the delta LECs a rule update induces.
"""

from repro.dataplane.actions import (
    ALL,
    ANY,
    Action,
    Deliver,
    Drop,
    Forward,
)
from repro.dataplane.fib import Fib, Rule
from repro.dataplane.lec import LecEntry, LecTable, build_lec_table, diff_lec_tables
from repro.dataplane.routes import RouteConfig, install_routes
from repro.dataplane.errors import (
    inject_blackhole,
    inject_waypoint_bypass,
)

__all__ = [
    "Action",
    "Forward",
    "Drop",
    "Deliver",
    "ALL",
    "ANY",
    "Rule",
    "Fib",
    "LecEntry",
    "LecTable",
    "build_lec_table",
    "diff_lec_tables",
    "RouteConfig",
    "install_routes",
    "inject_blackhole",
    "inject_waypoint_bypass",
]
