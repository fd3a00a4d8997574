"""Span wrappers around each layer's public functions, installed from here.

The program under test is not edited: :class:`Tracer` resolves each
target lazily by dotted name, wraps it, and patches the wrapper into the
class that owns it or into every module namespace that imported it
(``repro.dvm.verifier.build_lec_table``, not only ``repro.dataplane.lec``).
A target a later refactor renames is reported in :attr:`Tracer.unresolved`
and its group's metrics read ``null``; nothing crashes and no end-to-end
number depends on this module (they come from untraced runs).

A span is (id, parent id, name, layer, start, end, op index, device).
The parent is the call-stack parent, kept in a ``contextvars`` variable so
that an ``async`` span suspended in ``await`` is not charged with the
handlers other tasks run meanwhile.  Self time = duration - child spans;
it is accumulated per target as spans close, so memory does not grow with
the run.  The first :data:`SPAN_CAP` raw spans are also kept in memory
for :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SPAN_CAP = 100_000

Measure = Callable[[Any], float]


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``group`` names the metric pair it feeds (``<group>_calls``,
    ``<group>_self_s``); the layer is the group's module prefix.
    ``outermost`` records only the outermost call of the group (the BDD
    operators recurse through ``self.apply_*``).  ``measure`` maps the
    return value to a number (frames emitted, bytes encoded) summed in
    :attr:`Stat.measure`; a zero counts in :attr:`Stat.empty`.
    """

    group: str
    dotted: str
    outermost: bool = False
    measure: Optional[Measure] = None
    keep_durations: bool = False


def _len(result: Any) -> float:
    return float(len(result))


def _len_changes(result: Any) -> float:
    # apply_lec_update returns (table, changes)
    return float(len(result[1]))


_BDD = "repro.bdd.manager.BDDManager."
_PRED = "repro.packetspace.predicate.Predicate."
_FACTORY = "repro.packetspace.predicate.PredicateFactory."
_LEC = "repro.dataplane.lec."
_FIB = "repro.dataplane.fib.Fib."
_COUNTS = "repro.counting.counts."
_VERIFIER = "repro.dvm.verifier.OnDeviceVerifier."
_CIB = "repro.dvm.cib."
_MSG = "repro.dvm.messages."
_SIM = "repro.simulator.network.SimulatedNetwork."
_OBS = "repro.obs.metrics."
_RUNTIME = "repro.runtime."
_FLEET = "repro.fleet.launcher.FleetLauncher."

TARGETS: Tuple[Target, ...] = (
    # bdd
    *(
        Target("bdd.op", _BDD + name, outermost=True)
        for name in (
            "apply_and",
            "apply_or",
            "apply_xor",
            "apply_diff",
            "negate",
            "ite",
            "exists",
            "restrict",
        )
    ),
    Target("bdd.satcount", _BDD + "sat_count"),
    Target("bdd.serialize", "repro.bdd.serialize.serialize_bdd", measure=_len),
    Target("bdd.deserialize", "repro.bdd.serialize.deserialize_bdd"),
    # packetspace
    *(
        Target("packetspace.op", _PRED + name)
        for name in ("__and__", "__or__", "__sub__", "__invert__")
    ),
    Target("packetspace.op", _FACTORY + "union"),
    Target("packetspace.op", _FACTORY + "intersection"),
    *(
        Target("packetspace.build", _FACTORY + name)
        for name in ("dst_prefix", "field_range", "field_eq")
    ),
    # dataplane
    Target("dataplane.lec_build", _LEC + "build_lec_table"),
    Target("dataplane.lec_apply", _LEC + "apply_lec_update", measure=_len_changes),
    Target("dataplane.lec_diff", _LEC + "diff_lec_tables"),
    *(
        Target("dataplane.fib_mutate", _FIB + name)
        for name in ("insert", "remove", "replace_action")
    ),
    # planner
    Target("planner.plan", "repro.planner.tasks.plan_invariant"),
    # counting
    *(
        Target("counting.countset_op", _COUNTS + "CountSet." + name)
        for name in ("cross_sum", "union", "with_zero", "minimal_info")
    ),
    Target("counting.countset_op", _COUNTS + "cross_sum_all"),
    Target("counting.countset_op", _COUNTS + "union_all"),
    # dvm.verifier
    Target("dvm.verifier.install", _VERIFIER + "install_plan", measure=_len),
    Target("dvm.verifier.message", _VERIFIER + "on_message", measure=_len),
    Target("dvm.verifier.fib_changed", _VERIFIER + "on_fib_changed", measure=_len),
    Target("dvm.verifier.link_event", _VERIFIER + "on_link_event", measure=_len),
    # dvm.cib
    *(
        Target("dvm.cib.op", _CIB + name)
        for name in (
            "CibIn.withdraw",
            "CibIn.insert",
            "CibIn.lookup",
            "LocCib.remove_overlapping",
            "LocCib.insert",
            "LocCib.lookup",
            "CibOut.diff_against",
        )
    ),
    # dvm.messages / dvm.linkstate
    Target("dvm.messages.encode", _MSG + "encode_message", measure=_len),
    Target("dvm.messages.decode", _MSG + "decode_message"),
    Target("dvm.messages.decode", _MSG + "decode_stream"),
    Target("dvm.linkstate.flood", "repro.dvm.linkstate.encode_linkstate_body"),
    # simulator: self time is the event queue, closures and bookkeeping
    *(
        Target("simulator.op", _SIM + name)
        for name in ("install_plans", "fib_update", "fail_link", "recover_link")
    ),
    # obs
    Target("obs.registry", _OBS + "MetricFamily.labels"),
    Target("obs.registry", _OBS + "Counter.inc"),
    Target("obs.registry", _OBS + "Histogram.observe"),
    Target("obs.flight_record", "repro.obs.flight.FlightRecorder.record"),
    # runtime
    Target("runtime.send", _RUNTIME + "connection.PeerSession.send"),
    Target("runtime.send", _RUNTIME + "transport.FramedChannel.send"),
    Target("runtime.feed", _RUNTIME + "transport.FrameAssembler.feed"),
    Target("runtime.quiescence_wait", _RUNTIME + "cluster.RuntimeCluster.wait_quiescence"),
    *(
        Target("runtime.op", _RUNTIME + "cluster.RuntimeCluster." + name)
        for name in ("install_plans", "fib_update")
    ),
    # fleet (launcher side; workers are other processes)
    Target("fleet.control_rtt", _FLEET + "call_worker", keep_durations=True),
    Target("fleet.broadcast", _FLEET + "broadcast"),
    Target("fleet.settle", _FLEET + "settle"),
    *(
        Target("fleet.op", _FLEET + name)
        for name in ("install_plans", "apply_update")
    ),
)

GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(t.group for t in TARGETS))


class Stat:
    """Counters of one target, accumulated as its spans close."""

    __slots__ = ("calls", "self_s", "measure", "empty", "durations")

    def __init__(self, keep_durations: bool = False) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.measure = 0.0
        self.empty = 0
        self.durations: Optional[List[float]] = [] if keep_durations else None


def _resolve(dotted: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, function) for a dotted name; owner is a module
    or a class.  Raises LookupError when any part is missing."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], inspect.getattr_static(owner, parts[-1])
        except AttributeError as exc:
            raise LookupError(f"{dotted}: {exc}") from None
    raise LookupError(f"{dotted}: no importable module")


class Tracer:
    """Installs, removes and aggregates the span wrappers."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.stats: Dict[str, Stat] = {}
        self.unresolved: Dict[str, str] = {}  # group -> reason
        self.warnings: List[str] = []
        self.spans: List[Tuple[Any, ...]] = []
        #: Index of the operation being driven (set by the workload loop).
        self.op_index = -1
        self._next_id = 0
        self._current: "contextvars.ContextVar[Optional[List[Any]]]" = (
            contextvars.ContextVar("perf_span", default=None)
        )
        # (namespace, attribute, original, wrapper), resolved on first install
        self._sites: Optional[List[Tuple[Any, str, Any, Any]]] = None
        self.installed = False

    # -- patching ----------------------------------------------------------

    def _resolved_sites(self) -> List[Tuple[Any, str, Any, Any]]:
        """Every place to patch; found once, after which
        :attr:`unresolved` and :attr:`stats` are complete."""
        if self._sites is None:
            self._sites = self._find_sites()
        return self._sites

    def _find_sites(self) -> List[Tuple[Any, str, Any, Any]]:
        sites: List[Tuple[Any, str, Any, Any]] = []
        for target in self.targets:
            try:
                owner, attribute, original = _resolve(target.dotted)
                if not inspect.isfunction(original):
                    raise LookupError(f"{target.dotted}: not a plain function")
            except LookupError as exc:
                self.unresolved[target.group] = str(exc)
                self.warnings.append(
                    f"trace target not usable ({exc}); "
                    f"{target.group}_* read null"
                )
                continue
            stat = self.stats.setdefault(
                target.dotted, Stat(target.keep_durations)
            )
            wrapper = self._wrap(target, original, stat)
            if inspect.isclass(owner):
                sites.append((owner, attribute, original, wrapper))
                continue
            # A module-level function: patch every namespace that holds it.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        sites.append((module, name, original, wrapper))
        return sites

    def install(self) -> None:
        """Patch every site.  Import the program's modules first: a
        namespace imported later keeps the unwrapped function."""
        if self.installed:
            return
        for owner, attribute, _, wrapper in self._resolved_sites():
            setattr(owner, attribute, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attribute, original, _ in self._resolved_sites():
            setattr(owner, attribute, original)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn: Any, stat: Stat) -> Any:
        tracer = self
        current = self._current
        perf = time.perf_counter
        group = target.group
        outermost = target.outermost
        measure = target.measure
        # layer = the module that owns the function: repro.<layer>.[Class.]name
        parts = target.dotted.split(".")[1:]
        name = parts.pop()
        layer = ".".join(part for part in parts if part.islower())
        spans = self.spans

        def close(frame: List[Any], parent: Optional[List[Any]],
                  start: float, end: float, args: Tuple[Any, ...]) -> None:
            duration = end - start
            # A child that ran in another task (``asyncio.gather`` fans
            # ``call_worker`` out) overlaps its siblings: it keeps its
            # parent, but is not subtracted from the parent's self time.
            if parent is not None and (
                frame[3] is None or parent[3] is None or parent[3] is frame[3]
            ):
                parent[1] += duration
            stat.calls += 1
            stat.self_s += duration - frame[1]
            if stat.durations is not None:
                stat.durations.append(duration)
            if len(spans) < SPAN_CAP:
                spans.append(
                    (
                        frame[2],
                        parent[2] if parent is not None else None,
                        name,
                        layer,
                        start,
                        end,
                        tracer.op_index,
                        getattr(args[0], "device", None) if args else None,
                    )
                )

        def record(result: Any) -> None:
            amount = measure(result)  # type: ignore[misc]
            stat.measure += amount
            if not amount:
                stat.empty += 1

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                tracer._next_id += 1
                frame = [group, 0.0, tracer._next_id, asyncio.current_task()]
                token = current.set(frame)
                start = perf()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = perf()
                    current.reset(token)
                    close(frame, parent, start, end, args)
                if measure is not None:
                    record(result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = current.get()
            if outermost and parent is not None and parent[0] is group:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [group, 0.0, tracer._next_id, None]
            token = current.set(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                current.reset(token)
                close(frame, parent, start, end, args)
            if measure is not None:
                record(result)
            return result

        return wrapper

    # -- reading -----------------------------------------------------------

    def _group_stats(self, group: str) -> List[Stat]:
        return [
            self.stats[t.dotted] for t in self.targets if t.group == group
        ]

    def group_totals(self) -> Dict[str, Tuple[int, float]]:
        """group -> (calls, self seconds); unresolved groups are absent."""
        self._resolved_sites()
        return {
            group: (
                sum(stat.calls for stat in self._group_stats(group)),
                sum(stat.self_s for stat in self._group_stats(group)),
            )
            for group in GROUPS
            if group not in self.unresolved
        }

    def sum_of(self, counter: str, groups: Sequence[str]) -> Optional[float]:
        """Sum of one :class:`Stat` counter over ``groups``; None when any
        of them has an unresolved target."""
        if any(group in self.unresolved for group in groups):
            return None
        return float(
            sum(
                getattr(stat, counter)
                for group in groups
                for stat in self._group_stats(group)
            )
        )

    def total_self_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def write_spans(self, path: str) -> None:
        """The retained raw spans as JSON lines."""
        keys = ("id", "parent", "name", "layer", "start", "end", "op", "device")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
