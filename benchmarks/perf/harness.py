"""The closed-loop driver shared by the five workloads.

One client: inject one operation, wait until the backend reports
convergence, then inject the next -- that is how a FIB update reaches a
verifier.  A workload is a :class:`Backend` (simulator, TCP runtime or
fleet) plus sizes; :func:`run_rounds` drives any of them through

    set-up  ->  burst (``install_plans``)  ->  operations  ->  oracle

and :class:`Measurement` keeps the samples.  Three clocks are kept apart:

* ``call``  -- ``perf_counter`` around the public call, what the caller
  waits.  The simulator is single-threaded, so there it is the *sum* of
  every device's compute plus wire encoding and bookkeeping;
* ``model`` -- the simulator's model time (measured per-event compute on
  per-device lanes + link latency), the paper's "verification time".
  It exists on the simulator workloads only: layer metric ``simulator.*``;
* ``wall``  -- the convergence time a socket backend reports (to the last
  counting activity, detection excluded).  Layer metric only.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.baselines import FlashVerifier
from repro.bench.workloads import Workload

from trace import GROUPS, Tracer

#: Traced runs alternate blocks of this many operations, untraced first,
#: so ``trace_overhead_ratio`` compares interleaved samples of one stream.
TRACE_BLOCK = 25
SMOKE_TRACE_BLOCK = 2

Seconds = Union[float, Awaitable[float]]
Value = Optional[float]


@dataclass
class Op:
    """One injected operation; ``invoke`` returns the backend's reported
    convergence seconds (or an awaitable of them)."""

    kind: str
    description: str
    invoke: Callable[[], Seconds] = field(repr=False)


class Backend:
    """What the driver needs from a backend.  ``clock`` names what
    ``burst``/``Op.invoke`` report: ``"model"`` or ``"wall"`` seconds."""

    clock = "model"

    async def setup(self) -> None:
        """Build the inputs and bring the backend up."""
        raise NotImplementedError

    async def burst(self) -> float:
        """Install every plan as one burst; reported convergence."""
        raise NotImplementedError

    def ops(self, first: int, count: int) -> List[Op]:
        """Operations ``first`` .. ``first + count - 1`` of the workload's
        stream (each round of fresh backends runs the next slice)."""
        raise NotImplementedError

    async def wire(self) -> Tuple[int, int]:
        """(bytes, frames) of DVM counting traffic sent so far;
        keepalives excluded because they follow the clock."""
        raise NotImplementedError

    async def holds(self) -> Dict[str, bool]:
        """Plan id -> distributed verdict."""
        raise NotImplementedError

    def oracle_inputs(self) -> Workload:
        """The workload with its FIBs as they are after the operations."""
        raise NotImplementedError

    def facts(self) -> Dict[str, float]:
        """Layer facts read off the backend's state (not spans)."""
        return {}

    async def close(self) -> None:
        pass


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def oracle_mismatches(workload: Workload, holds: Dict[str, bool]) -> List[str]:
    """Plans whose distributed verdict differs from centralized
    Algorithm 1 (:class:`FlashVerifier`) over the same final FIBs."""
    verifier = FlashVerifier(workload.factory)
    verifier.load_snapshot(workload.fibs)
    failing = set(verifier.verify(workload.plans).failing_plans)
    return [
        plan_id
        for plan_id, _ in workload.plans
        if (plan_id in failing) == holds.get(plan_id, False)
    ]


@dataclass
class OpSample:
    """One completed operation, on both clocks."""

    kind: str
    call_s: float
    reported_s: float
    traced: bool


def untraced(values: Sequence[float], flags: Sequence[bool]) -> List[float]:
    """The untraced samples of a traced run; all of them if none is."""
    return [v for v, traced in zip(values, flags) if not traced] or list(values)


class Measurement:
    """Samples, failure accounting and layer facts of one workload run."""

    def __init__(
        self, tracer: Optional[Tracer] = None, trace_block: int = TRACE_BLOCK
    ) -> None:
        self.tracer = tracer
        self.trace_block = trace_block
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Clock of the ``reported`` values: the backend's.
        self.clock = "model"
        self.setup_s: List[float] = []
        self.setup_traced: List[bool] = []
        self.burst_call_s: List[float] = []
        self.burst_reported_s: List[float] = []
        self.burst_traced: List[bool] = []
        self.ops: List[OpSample] = []
        #: Counting traffic of all rounds, and the frames operations sent.
        self.wire_bytes = 0
        self.wire_frames = 0
        self.op_frames = 0
        self.traced_op_self_s = 0.0
        self.facts: Dict[str, float] = {}
        #: phase -> group -> [calls, self seconds], for the --out report
        self.phases: Dict[str, Dict[str, List[float]]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    # -- phases ------------------------------------------------------------

    async def _timed(
        self, phase: str, traced: bool, call: Callable[[], Awaitable[Value]]
    ) -> Tuple[float, Value]:
        """(call seconds, result) with the wrappers on for its duration."""
        if not traced:
            start = time.perf_counter()
            result = await call()
            return time.perf_counter() - start, result
        tracer = self.tracer
        assert tracer is not None
        before = tracer.group_totals()
        tracer.op_index = -1
        with tracer:
            start = time.perf_counter()
            result = await call()
            elapsed = time.perf_counter() - start
        self._add_phase(phase, before)
        return elapsed, result

    def _add_phase(
        self, phase: str, before: Dict[str, Tuple[int, float]]
    ) -> None:
        assert self.tracer is not None
        table = self.phases.setdefault(phase, {})
        for group, (calls, self_s) in self.tracer.group_totals().items():
            row = table.setdefault(group, [0, 0.0])
            row[0] += calls - before[group][0]
            row[1] += self_s - before[group][1]

    async def timed_setup(self, backend: Backend, traced: bool) -> None:
        elapsed, _ = await self._timed("setup", traced, backend.setup)
        self.setup_s.append(elapsed)
        self.setup_traced.append(traced)

    async def timed_burst(self, backend: Backend, traced: bool) -> None:
        self.attempted += 1
        elapsed, reported = await self._timed("burst", traced, backend.burst)
        assert reported is not None
        self.burst_call_s.append(elapsed)
        self.burst_reported_s.append(reported)
        self.burst_traced.append(traced)

    async def drive(self, ops: Sequence[Op]) -> None:
        """Run ``ops`` one after another; a raising operation is counted
        as failed and the loop goes on.  A traced run alternates blocks of
        untraced and traced operations."""
        tracer = self.tracer
        before = tracer.group_totals() if tracer else {}
        self_before = tracer.total_self_s() if tracer else 0.0
        for position, op in enumerate(ops):
            count = len(self.ops)
            traced = tracer is not None and (count // self.trace_block) % 2 == 1
            if tracer is not None:
                tracer.op_index = count
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
            self.attempted += 1
            start = time.perf_counter()
            try:
                reported = op.invoke()
                if inspect.isawaitable(reported):
                    reported = await reported
            except Exception as exc:  # boundary: count it, keep the run alive
                self.fail(f"op {position} ({op.description}): {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            self.ops.append(OpSample(op.kind, elapsed, reported, traced))
        if tracer is not None:
            tracer.uninstall()
            self.traced_op_self_s += tracer.total_self_s() - self_before
            self._add_phase("ops", before)

    async def check_oracle(self, backend: Backend) -> None:
        holds = await backend.holds()
        workload = backend.oracle_inputs()
        self.attempted += len(workload.plans)
        for plan_id in oracle_mismatches(workload, holds):
            self.fail(
                f"verdict of {plan_id} is {holds.get(plan_id)!r}; "
                "the centralized oracle disagrees"
            )


async def run_rounds(
    m: Measurement,
    make_backend: Callable[[], Backend],
    rounds: int,
    ops_per_round: int,
    extra_setups: int = 0,
    trace_burst: bool = True,
    same_burst_each_round: bool = False,
) -> None:
    """``rounds`` fresh backends with identical inputs, each: set-up,
    burst, then the next ``ops_per_round`` operations of the workload's
    stream; the oracle checks the last one.

    ``extra_setups`` backends are first brought up and closed, so that
    ``setup_s`` is a median even where one round is affordable; a traced
    run skips them.  With several rounds the first one stays untraced,
    which gives a traced run its own untraced reference.  Anything that
    raises outside an operation fails the round.
    """
    tracing = m.tracer is not None
    burst_wires: List[Tuple[int, int]] = []
    for round_index in range(0 if tracing else -extra_setups, rounds):
        backend = make_backend()
        m.clock = backend.clock
        round_traced = tracing and (rounds == 1 or round_index > 0)
        try:
            await m.timed_setup(backend, round_traced)
            if round_index < 0:
                continue
            m.facts["bdd.nodes_setup"] = backend.facts().get("bdd.nodes", 0)
            await m.timed_burst(backend, round_traced and trace_burst)
            burst_wire = await backend.wire()
            burst_wires.append(burst_wire)
            await m.drive(backend.ops(round_index * ops_per_round, ops_per_round))
            wire_bytes, wire_frames = await backend.wire()
            m.wire_bytes += wire_bytes
            m.wire_frames += wire_frames
            m.op_frames += wire_frames - burst_wire[1]
            if round_index == rounds - 1:
                await m.check_oracle(backend)
                m.facts.update(backend.facts())
        except Exception as exc:  # boundary: count it, keep the run alive
            m.attempted += 1
            m.fail(f"round {round_index}: {exc!r}")
        finally:
            await backend.close()
    if same_burst_each_round:
        m.attempted += 1
        if len(set(burst_wires)) != 1:
            m.fail(
                "the burst's wire (bytes, frames) differ between rounds: "
                f"{burst_wires}"
            )


# ---------------------------------------------------------------------------
# metrics


def _median(values: Sequence[float]) -> Value:
    return statistics.median(values) if values else None


def _pct(values: Sequence[float], q: float) -> Value:
    """Percentile of seconds, in milliseconds."""
    return percentile(values, q) * 1e3 if values else None


def _ratio(numerator: Value, denominator: Value) -> Value:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this interpreter (KiB on Linux) in MB, plus the
    largest reaped child when the workload spawns workers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(m: Measurement, rss_mb: float) -> Dict[str, Tuple[Value, int]]:
    """name -> (value, samples behind it); from an untraced run only.

    Set-up and burst are medians over set-ups and rounds; percentiles are
    over every operation of every round, as measured.
    """
    calls = [op.call_s for op in m.ops]
    return {
        "setup_s": (_median(m.setup_s), len(m.setup_s)),
        "burst_call_s": (_median(m.burst_call_s), len(m.burst_call_s)),
        "op_call_p50_ms": (_pct(calls, 0.5), len(calls)),
        "op_call_p90_ms": (_pct(calls, 0.9), len(calls)),
        "wire_bytes": (m.wire_bytes or None, 1),
        "wire_msgs": (m.wire_frames or None, 1),
        "peak_rss_mb": (rss_mb, 1),
    }


def kind_counts(m: Measurement) -> Dict[str, int]:
    """Operations that completed, by kind: the realized mix."""
    counts: Dict[str, int] = {}
    for op in m.ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts


#: Layers whose rows are the socket backends' own reported times.
SOCKET_LAYERS = ("runtime", "fleet")

FLEET_UNOBSERVED = (
    "fleet workers are other processes: only launcher-side spans exist, "
    "so the layers that run inside the workers read null"
)


def per_layer(m: Measurement, socket_layer: str) -> Dict[str, Value]:
    """Layer metrics of a traced run (a superset of what BENCHMARK.json
    declares).  ``None`` = not observable: a trace target no longer
    resolves, or the layer runs inside a fleet worker process.  0 = the
    workload does not exercise the layer.  ``socket_layer`` is
    ``"runtime"`` or ``"fleet"`` on the socket workloads, else ``""``.
    Timing rows use the untraced operation blocks only.
    """
    tracer = m.tracer
    assert tracer is not None
    in_workers = socket_layer == "fleet"
    out: Dict[str, Value] = {}
    totals = tracer.group_totals()
    for group in GROUPS:
        observed = not in_workers or group.startswith("fleet.")
        calls, self_s = totals.get(group, (None, None)) if observed else (None, None)
        out[f"{group}_calls"] = calls
        out[f"{group}_self_s"] = self_s

    def summed(counter: str, *groups: str) -> Value:
        return None if in_workers else tracer.sum_of(counter, groups)

    def fact(name: str) -> Value:
        return None if in_workers else m.facts.get(name, 0)

    handlers = [
        f"dvm.verifier.{h}"
        for h in ("install", "message", "fib_changed", "link_event")
    ]
    out["dvm.verifier.silent_event_share"] = _ratio(
        summed("empty", *handlers), summed("calls", *handlers)
    )
    out["dvm.verifier.frames_out_per_update"] = _ratio(
        float(m.op_frames), float(len(m.ops))
    )
    out["bdd.serialize_bytes_mean"] = _ratio(
        summed("measure", "bdd.serialize"), out["bdd.serialize_calls"]
    )
    out["dvm.messages.bytes_per_frame_mean"] = _ratio(
        summed("measure", "dvm.messages.encode"),
        out["dvm.messages.encode_calls"],
    )
    out["dvm.linkstate.flood_frames"] = out["dvm.linkstate.flood_calls"]
    out["dataplane.lec_noop_share"] = _ratio(
        summed("empty", "dataplane.lec_apply"), out["dataplane.lec_apply_calls"]
    )
    for counter in ("calls", "self_s"):
        out[f"dataplane.lec_update_{counter}"] = summed(
            counter, "dataplane.lec_apply", "dataplane.lec_diff"
        )
    out["bdd.nodes_setup"] = fact("bdd.nodes_setup")
    out["bdd.nodes_end"] = fact("bdd.nodes")
    out["bdd.nodes_growth"] = (
        None if in_workers else out["bdd.nodes_end"] - out["bdd.nodes_setup"]  # type: ignore[operator]
    )
    out["dataplane.lec_entries_end"] = fact("lec_entries")
    out["planner.dpvnet_nodes"] = fact("dpvnet_nodes")
    out["runtime.decode_errors"] = fact("decode_errors")

    # Timing rows: the untraced set-ups, bursts and operation blocks of
    # this run (a single-round workload has only traced ones of the former).
    setups = untraced(m.setup_s, m.setup_traced)
    burst_call = untraced(m.burst_call_s, m.burst_traced)
    burst_reported = untraced(m.burst_reported_s, m.burst_traced)
    plain = [op for op in m.ops if not op.traced]
    calls_plain = [op.call_s for op in plain]
    calls_traced = [op.call_s for op in m.ops if op.traced]
    reported_plain = [op.reported_s for op in plain]
    out["trace_overhead_ratio"] = _ratio(
        _median(calls_traced), _median(calls_plain)
    )
    out["layer_coverage"] = _ratio(m.traced_op_self_s, sum(calls_traced))
    out["ops_per_s"] = _ratio(float(len(calls_plain)), sum(calls_plain))
    out["op_call_p99_ms"] = _pct(calls_plain, 0.99)
    for kind in ("insert", "remove"):
        of_kind = [op.call_s for op in plain if op.kind == kind]
        out[f"update_{kind}_call_p50_ms"] = _pct(of_kind, 0.5) or 0.0
    # The model clock exists on the simulator only.
    on_simulator = m.clock == "model"
    out["simulator.burst_model_s"] = _median(burst_reported) if on_simulator else 0.0
    out["simulator.op_model_p50_ms"] = (
        _pct(reported_plain, 0.5) if on_simulator else 0.0
    )
    out["simulator.model_to_host_ratio"] = (
        _ratio(
            sum(reported_plain) + sum(burst_reported),
            sum(calls_plain) + sum(burst_call),
        )
        if on_simulator
        else 0.0
    )

    socket_rows: Dict[str, Value] = {
        "start_s": _median(setups),
        "burst_call_s": _median(burst_call),
        "burst_wall_s": _median(burst_reported),
        "update_converge_p50_ms": _pct(reported_plain, 0.5),
        "update_converge_p90_ms": _pct(reported_plain, 0.9),
        "detect_latency_p50_ms": _pct(
            [op.call_s - op.reported_s for op in plain], 0.5
        ),
        "reconnects": m.facts.get("reconnects", 0),
    }
    for layer in SOCKET_LAYERS:
        for name, value in socket_rows.items():
            out[f"{layer}.{name}"] = value if layer == socket_layer else 0.0
    rtt = tracer.stats.get("repro.fleet.launcher.FleetLauncher.call_worker")
    out["fleet.control_rtt_p50_ms"] = (
        None if rtt is None else _pct(rtt.durations or [], 0.5) or 0.0
    )
    out["fleet.broadcasts_per_op"] = _ratio(
        out["fleet.broadcast_calls"],
        float(len(m.ops) + len(m.burst_call_s)),
    )
    return out
