#!/usr/bin/env python3
"""The standing benchmark: one command, every workload, every metric.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--traced] [--smoke] [--out FILE]

runs each workload alone in a fresh child interpreter (``PYTHONHASHSEED=0``,
one after another, no threads added), checks every verdict against the
centralized oracle, and prints every metric by name with its unit and the
samples behind it.  ``--traced`` adds a second, traced pass that gives the
per-layer metrics; end-to-end numbers always come from the untraced pass.
``--out FILE`` appends the runs to FILE (JSON) for ``compare.py``.

With one workload and one pass (``--workload NAME --trace 0|1``) the last
line of standard output is the result object the benchmark driver reads:
``{"correct", "attempted", "failed", "metrics"}``, with exactly the
metrics ``BENCHMARK.json`` declares for that pass.

``--seconds`` sets the size of the operation stream (a fixed count per
second of budget), not a deadline: the same ``--seed`` and ``--seconds``
always give the same inputs, so counts repeat exactly.

Exit code: 0 when every operation succeeded and every verdict matched the
oracle; non-zero otherwise, or when a child could not run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: A child that runs longer than this is killed with its workers.
CHILD_TIMEOUT_S = 170.0


def load_declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# child: one workload, in this interpreter


def child_main(args: argparse.Namespace) -> int:
    from harness import (
        FLEET_UNOBSERVED,
        SMOKE_TRACE_BLOCK,
        TRACE_BLOCK,
        Measurement,
        end_to_end,
        kind_counts,
        peak_rss_mb,
        per_layer,
    )
    from trace import Tracer
    from workloads import BY_NAME, run_workload

    definition = BY_NAME[args.workload[0]]
    tracer = Tracer() if args.trace else None
    measurement = Measurement(
        tracer, SMOKE_TRACE_BLOCK if args.smoke else TRACE_BLOCK
    )
    asyncio.run(
        run_workload(definition, measurement, args.seed, args.seconds, args.smoke)
    )
    samples: Dict[str, int] = {}
    if tracer is None:
        rss = peak_rss_mb(definition.include_children_rss)
        metrics = {}
        for name, (value, count) in end_to_end(measurement, rss).items():
            metrics[name] = value
            samples[name] = count
    else:
        assert not tracer.installed, "span wrappers left installed"
        metrics = per_layer(measurement, definition.socket_layer)
        if definition.socket_layer == "fleet":
            tracer.warnings.append(FLEET_UNOBSERVED)
        if args.spans:
            tracer.write_spans(args.spans)
    document = {
        "workload": definition.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "note": definition.note,
        "clock": measurement.clock,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "failures": measurement.failures,
        "kinds": kind_counts(measurement),
        "metrics": metrics,
        "samples": samples,
        "warnings": tracer.warnings if tracer else [],
        "phases": measurement.phases,
    }
    print(json.dumps(document))
    return 0


# ---------------------------------------------------------------------------
# parent: children one after another, report


def stop_session(process: "subprocess.Popen[str]") -> None:
    """Kill every process of the child's session and reap the child."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def run_child(
    workload: str, args: argparse.Namespace, trace: int
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; its result document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--spans", f"{args.out}.{workload}.spans.jsonl"]
    # Own session, so that a child that hangs or dies can be stopped
    # together with any fleet workers it spawned.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # leave nothing running, then re-raise
        stop_session(process)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(
                f"{workload}: no result within {CHILD_TIMEOUT_S:g} s"
            ) from None
        raise
    if process.returncode != 0:
        stop_session(process)
        raise RuntimeError(f"{workload}: child exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def declared(declaration: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    rows = declaration["per_layer" if trace else "end_to_end"]
    return {row["name"]: row for row in rows}


def check_names(document: Dict[str, Any], names: Dict[str, Any]) -> None:
    missing = sorted(set(names) - set(document["metrics"]))
    if missing:
        raise RuntimeError(
            f"{document['workload']}: BENCHMARK.json declares metrics the "
            f"benchmark does not compute: {missing}"
        )


def print_report(document: Dict[str, Any], names: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if document["trace"] else "end-to-end"
    print(
        f"\n== {document['workload']} · seed {document['seed']} · {kind}"
        f" · {document['note']}"
    )
    for name, row in names.items():
        value = document["metrics"][name]
        shown = "null" if value is None else f"{value:.6g}"
        count = document["samples"].get(name)
        tail = f"  (n={count})" if count and count > 1 else ""
        print(f"  {name:<40} {shown:>14} {row['unit']}{tail}")
    completed = sum(document["kinds"].values())
    mix = ", ".join(
        f"{kind} {count} ({count / completed:.1%})"
        for kind, count in sorted(document["kinds"].items())
    )
    print(f"  operations completed, by kind: {mix}")
    attempted, failed = document["attempted"], document["failed"]
    print(
        f"  {'failed_share':<40} {failed / attempted:>14.6g} ratio"
        f"  ({failed} failed of {attempted} attempted)"
    )
    for failure in document["failures"]:
        print(f"  FAILED: {failure}")
    for warning in document["warnings"]:
        print(f"  warning: {warning}", file=sys.stderr)


def driver_line(document: Dict[str, Any], names: Dict[str, Any]) -> str:
    """The result object of the benchmark contract.  A metric whose trace
    target no longer resolves (``null``) is written as 0."""
    return json.dumps(
        {
            "correct": document["failed"] == 0,
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {
                    "value": document["metrics"][name] or 0,
                    "unit": row["unit"],
                }
                for name, row in names.items()
            },
        }
    )


def append_runs(path: str, documents: List[Dict[str, Any]]) -> None:
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"runs": runs + documents}, handle, indent=1)


def parent_main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise RuntimeError(f"the program's sources are not at {SRC}")
    declaration = load_declaration()
    known = [row["name"] for row in declaration["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    passes = [0, 1] if args.traced else [args.trace]
    documents: List[Dict[str, Any]] = []
    for trace in passes:
        names = declared(declaration, trace)
        for workload in workloads:
            document = run_child(workload, args, trace)
            check_names(document, names)
            print_report(document, names)
            documents.append(document)
    if args.out:
        append_runs(args.out, documents)
    failed = sum(document["failed"] for document in documents)
    if len(documents) == 1:
        print(driver_line(documents[0], declared(declaration, passes[0])))
    else:
        print(f"\n{len(documents)} runs, {failed} failed operations or verdicts")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="size of the operation stream, in seconds of budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass only (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="the untraced pass, then the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; checks the plumbing, not the numbers")
    parser.add_argument("--out", metavar="FILE",
                        help="append the runs to FILE for compare.py")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
