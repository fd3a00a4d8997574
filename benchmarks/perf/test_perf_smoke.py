"""Smoke test of the standing benchmark's plumbing (not of its numbers).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` -- outside the
tier-1 ``testpaths``.  Tiny sizes; about 15 s.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, Tuple

import pytest

import compare
import run
from harness import Measurement, oracle_mismatches, run_rounds
from trace import TARGETS, Tracer
from workloads import BY_NAME

DECLARATION = run.load_declaration()
WORKLOADS = [row["name"] for row in DECLARATION["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_lines() -> Dict[Tuple[str, int], Dict[str, Any]]:
    """(workload, trace) -> the result object ``run.py --smoke`` prints as
    the last line of its standard output."""
    lines = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
                 "--workload", workload, "--trace", str(trace)],
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            lines[workload, trace] = json.loads(done.stdout.splitlines()[-1])
    return lines


def test_declared_workloads_are_the_defined_ones() -> None:
    assert WORKLOADS == list(BY_NAME)
    for row in DECLARATION["workloads"]:
        assert NAME.match(row["name"]) and 0 < len(row["why"]) <= 200


@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_exactly_the_declared_metrics(smoke_lines, trace) -> None:
    rows = DECLARATION["per_layer" if trace else "end_to_end"]
    units = {row["name"]: row["unit"] for row in rows}
    assert all(NAME.match(name) for name in units)
    for workload in WORKLOADS:
        line = smoke_lines[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(units), workload
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name] and metric["unit"]
            assert isinstance(metric["value"], (int, float)), (workload, name)
            if not trace:
                assert metric["value"] > 0, (workload, name)


def test_every_layer_metric_is_exercised_by_some_workload(smoke_lines) -> None:
    """A declared name no workload ever moves off 0 is a typo."""
    for row in DECLARATION["per_layer"]:
        if row["name"] in ("runtime.reconnects", "runtime.decode_errors",
                           "fleet.reconnects", "bdd.satcount_calls"):
            continue  # faults and sat-counting: none on these workloads
        assert any(
            smoke_lines[workload, 1]["metrics"][row["name"]]["value"]
            for workload in WORKLOADS
        ), row["name"]


def test_tracer_removes_its_wrappers_and_survives_a_renamed_target() -> None:
    from repro.bdd.manager import BDDManager
    from repro.dvm import verifier

    original = BDDManager.apply_and
    imported = verifier.build_lec_table
    gone = type(TARGETS[0])("bdd.op", "repro.bdd.manager.BDDManager.renamed_away")
    tracer = Tracer(TARGETS + (gone,))
    with tracer:
        assert BDDManager.apply_and is not original
        # patched in the importing namespace, not only where it is defined
        assert verifier.build_lec_table is not imported
        manager = BDDManager(4)
        manager.apply_and(manager.var(0), manager.apply_or(manager.var(1), manager.var(2)))
    assert BDDManager.apply_and is original
    assert verifier.build_lec_table is imported
    totals = tracer.group_totals()
    assert "bdd.op" not in totals and "bdd.op" in tracer.unresolved
    assert tracer.warnings
    assert totals["dataplane.lec_build"] == (0, 0.0)


def test_recursive_bdd_operators_record_the_outermost_call_only() -> None:
    from repro.bdd.manager import BDDManager

    tracer = Tracer()
    manager = BDDManager(8)
    a = manager.conjoin([manager.var(i) for i in range(4)])
    b = manager.disjoin([manager.var(i) for i in range(2, 8)])
    with tracer:
        manager.apply_diff(a, b)  # apply_and + negate inside, each recursive
    assert tracer.group_totals()["bdd.op"][0] == 1


class _FlippedVerdict:
    """A backend stub: the real one, except that one verdict is flipped."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    async def holds(self) -> Dict[str, bool]:
        verdicts = await self._inner.holds()
        first = next(iter(verdicts))
        verdicts[first] = not verdicts[first]
        return verdicts


def _drive(wrap: Any) -> Measurement:
    definition = BY_NAME["fibheavy_churn"]
    measurement = Measurement()
    asyncio.run(
        run_rounds(
            measurement,
            lambda: wrap(definition.backend(definition.smoke, 11)),
            rounds=1,
            ops_per_round=10,
        )
    )
    return measurement


def test_a_flipped_verdict_trips_the_oracle() -> None:
    honest = _drive(lambda backend: backend)
    assert honest.failed == 0 and honest.attempted > 10
    corrupted = _drive(_FlippedVerdict)
    assert corrupted.failed == 1
    assert "oracle disagrees" in corrupted.failures[0]


def test_oracle_flags_exactly_the_flipped_plan() -> None:
    backend = BY_NAME["lan_burst"].backend(BY_NAME["lan_burst"].smoke, 11)

    async def verdicts() -> Tuple[Any, Dict[str, bool]]:
        await backend.setup()
        await backend.burst()
        return backend.oracle_inputs(), await backend.holds()

    workload, holds = asyncio.run(verdicts())
    assert oracle_mismatches(workload, holds) == []
    plan_id = workload.plans[-1][0]
    holds[plan_id] = not holds[plan_id]
    assert oracle_mismatches(workload, holds) == [plan_id]


def test_run_exits_nonzero_when_a_verdict_is_corrupted(monkeypatch, capsys) -> None:
    names = {row["name"]: 1.0 for row in DECLARATION["end_to_end"]}
    document = {
        "workload": "lan_burst", "seed": 11, "seconds": 15, "trace": 0,
        "note": "", "clock": "model", "kinds": {"fail": 2, "recover": 2},
        "attempted": 5, "failed": 1, "warnings": [], "samples": {},
        "failures": ["verdict of p is True; the centralized oracle disagrees"],
        "metrics": names,
    }
    monkeypatch.setattr(run, "run_child", lambda *args: document)
    assert run.main(["--workload", "lan_burst"]) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_compare_accepts_a_copy_and_rejects_a_slowdown_beyond_the_bound(tmp_path) -> None:
    base = tmp_path / "a.json"
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--workload", "multifield_churn", "--out", str(base)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert compare.main([str(base), str(base)]) == 0
    doctored = copy.deepcopy(json.loads(base.read_text()))
    bound = next(
        row["bound"] for row in DECLARATION["end_to_end"]
        if row["name"] == "op_call_p50_ms"
    )
    slowdown = 1 + bound + 0.05
    doctored["runs"][0]["metrics"]["op_call_p50_ms"] *= slowdown
    slower = tmp_path / "b.json"
    slower.write_text(json.dumps(doctored))
    assert compare.main([str(base), str(slower)]) == 1
    assert compare.main([str(slower), str(base)]) == 0
    doctored["runs"][0]["metrics"]["op_call_p50_ms"] /= slowdown
    doctored["runs"][0]["failed"] = 1
    slower.write_text(json.dumps(doctored))
    assert compare.main([str(base), str(slower)]) == 1
    # same seed, simulator: one more frame is a regression ...
    doctored["runs"][0]["failed"] = 0
    doctored["runs"][0]["metrics"]["wire_msgs"] += 1
    slower.write_text(json.dumps(doctored))
    assert compare.main([str(base), str(slower)]) == 1
    # ... which another seed's inputs could explain
    doctored["runs"][0]["seed"] += 1
    slower.write_text(json.dumps(doctored))
    assert compare.main([str(base), str(slower)]) == 0
