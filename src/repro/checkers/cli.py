"""``python -m repro lint`` -- the command-line front end of the analyzer.

Exit codes: 0 clean, 1 findings or unanalyzable files, 2 usage error.

``--github`` renders findings as GitHub Actions workflow commands
(``::error file=...,line=...``) so CI surfaces them as inline PR
annotations; ``--stats`` appends per-rule counts, the call graph's size
and the analysis wall time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, TextIO

from repro.checkers.engine import LintReport, run_lint


def configure_parser(parser: argparse.ArgumentParser) -> None:
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


def render_report(
    report: LintReport,
    *,
    stats: bool = False,
    github: bool = False,
    out: Optional[TextIO] = None,
) -> None:
    stream = out or sys.stdout
    for finding in report.findings:
        if github:
            print(finding.render_github(), file=stream)
        else:
            print(finding.render(), file=stream)
            print(f"    hint: {finding.hint}", file=stream)
    for error in report.errors:
        print(f"::error::{error}" if github else f"error: {error}", file=stream)

    if stats:
        from repro.bench.reporting import print_table

        print_table("repro lint: per-rule statistics", report.stats_rows())
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
        print(f"ok: {report.files_scanned} file(s) lint-clean", file=stream)


def cmd_lint(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = run_lint(paths)
    render_report(report, stats=args.stats, github=args.github)
    return 0 if report.clean else 1
