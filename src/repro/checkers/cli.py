"""``python -m repro lint`` -- command-line front end of repro-lint.

Exit codes: 0 clean, 1 findings or unanalyzable files, 2 usage error.

``--github`` renders findings as GitHub Actions workflow commands
(``::error file=...,line=...``) so CI surfaces them as inline PR
annotations; ``--sarif PATH`` writes the same findings as a SARIF
2.1.0 file for GitHub code scanning; ``--select RULES`` (alias
``--rule``) restricts the report to a comma-separated rule subset;
``--stats`` appends per-rule counts (active and suppressed) plus
analysis wall time, the numbers BENCH files track across PRs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional, TextIO, Union

from repro.checkers.engine import RULES, LintReport, run_lint
from repro.checkers.sarif import write_sarif
from repro.checkers.verifystatic import (
    VERIFY_RULES,
    VerifyReport,
    run_verify_static,
)


def _add_select_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--select",
        "--rule",
        action="append",
        default=None,
        metavar="RULES",
        dest="select",
        help="only report these rule ids (comma-separated, repeatable)",
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 file",
    )


def _resolve_select(
    values: Optional[List[str]], catalog: "dict[str, str]"
) -> Optional[FrozenSet[str]]:
    """The validated rule subset, or None for 'everything'.

    Raises SystemExit-free: unknown ids raise ValueError so the command
    can exit 2 with a usage message.
    """
    if not values:
        return None
    selected = {
        rule.strip()
        for chunk in values
        for rule in chunk.split(",")
        if rule.strip()
    }
    unknown = sorted(selected - set(catalog))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(catalog))})"
        )
    return frozenset(selected)


def _apply_select(report, selected: Optional[FrozenSet[str]]) -> None:
    if selected is None:
        return
    report.findings = [
        f for f in report.findings if f.rule in selected
    ]
    report.suppressed = [
        f for f in report.suppressed if f.rule in selected
    ]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Arguments of both ``lint`` and ``verify-static``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and analysis wall time",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="emit findings as GitHub Actions ::error annotations",
    )
    _add_select_args(parser)


def _render_findings(
    report: Union[LintReport, VerifyReport], github: bool, stream: TextIO
) -> None:
    """Findings, unanalyzable files and the suppression budget."""
    for finding in report.findings:
        if github:
            print(finding.render_github(), file=stream)
        else:
            print(finding.render(), file=stream)
            if finding.hint:
                print(f"    hint: {finding.hint}", file=stream)
    for error in report.errors:
        if github:
            print(f"::error::{error}", file=stream)
        else:
            print(f"error: {error}", file=stream)

    if report.suppressed:
        budget = ", ".join(
            f"{rule} x{count}"
            for rule, count in sorted(report.suppressed_counts().items())
        )
        print(
            f"suppression budget: {len(report.suppressed)} finding(s) "
            f"disabled inline ({budget})",
            file=stream,
        )


def render_report(
    report: LintReport,
    *,
    stats: bool = False,
    github: bool = False,
    out: Optional[TextIO] = None,
) -> None:
    stream = out or sys.stdout
    _render_findings(report, github, stream)

    if stats:
        from repro.bench.reporting import print_table

        print_table("repro-lint: per-rule statistics", report.stats_rows())
        print(
            f"analyzed {report.files_scanned} file(s) in "
            f"{report.elapsed_seconds * 1e3:.1f} ms",
            file=stream,
        )

    if report.clean and not github:
        print(
            f"ok: {report.files_scanned} file(s) lint-clean",
            file=stream,
        )


def render_verify_report(
    report: VerifyReport,
    *,
    stats: bool = False,
    github: bool = False,
    out: Optional[TextIO] = None,
) -> None:
    stream = out or sys.stdout
    _render_findings(report, github, stream)

    if report.fsm_checked:
        liveness = (
            "ESTABLISHED/ESTABLISHED reachable"
            if report.established_reachable
            else "ESTABLISHED/ESTABLISHED UNREACHABLE"
        )
        print(
            "model: explored "
            f"{report.states_explored} product state(s) / "
            f"{report.transitions_explored} transition(s) to fixpoint "
            f"({liveness})",
            file=stream,
        )

    if stats:
        from repro.bench.reporting import print_table

        print_table("verify-static: per-rule statistics", report.stats_rows())
        print(
            f"call graph: {report.functions_indexed} function(s) / "
            f"{report.call_edges} resolved edge(s)",
            file=stream,
        )
        print(
            f"analyzed {report.files_scanned} file(s) in "
            f"{report.elapsed_seconds * 1e3:.1f} ms",
            file=stream,
        )

    if report.clean and not github:
        print(
            f"ok: {report.files_scanned} file(s) verify-static clean",
            file=stream,
        )


def cmd_verify_static(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        selected = _resolve_select(args.select, VERIFY_RULES)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_verify_static(paths)
    _apply_select(report, selected)
    if args.sarif is not None:
        write_sarif(
            args.sarif,
            report.findings,
            report.errors,
            VERIFY_RULES,
            tool_name="repro-verify-static",
        )
    render_verify_report(report, stats=args.stats, github=args.github)
    return 0 if report.clean else 1


def cmd_lint(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        selected = _resolve_select(args.select, RULES)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_lint(paths)
    _apply_select(report, selected)
    if args.sarif is not None:
        write_sarif(
            args.sarif,
            report.findings,
            report.errors,
            RULES,
            tool_name="repro-lint",
        )
    render_report(report, stats=args.stats, github=args.github)
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.checkers.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based async-safety and hygiene checks for the "
        "Tulkun reproduction",
    )
    configure_parser(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
