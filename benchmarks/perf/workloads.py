"""The five workloads: inputs made from the seed, and the backend each runs on.

The program is driven only through its public entry points, with default
keyword arguments on the socket backends (their settle knobs are slated
for removal).  ``--seed`` feeds routing, the update stream and the link
choice; the program sees only the generated inputs.

Message delay: the simulator injects each link's topology latency (STFD
10 us; INet2 / B4-13 synthetic WAN milliseconds).  ``tcp_runtime`` and
``dc_fleet`` cross the host's loopback interface with no injected delay.
"""

from __future__ import annotations

import ipaddress
import os
import random
import shutil
import socket
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.workloads import (
    RuleUpdate,
    Workload,
    build_workload,
    random_rule_updates,
    reachability_invariant,
)
from repro.dataplane.actions import Forward
from repro.dataplane.fib import Rule
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.fleet.launcher import FleetError, FleetLauncher
from repro.fleet.sharding import CONTROL_SPAN
from repro.fleet.spec import (
    FleetSpec,
    build_fleet_workload,
    fleet_topology,
    fleet_update_stream,
)
from repro.packetspace.fields import DEFAULT_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.planner import plan_invariant
from repro.runtime.cluster import RuntimeCluster
from repro.simulator.network import SimulatedNetwork
from repro.topology.datasets import load_dataset
from repro.topology.graph import FaultScene

from harness import Backend, Measurement, Op, run_rounds

#: ``Size.ops`` is the operation count of a ``--seconds NOMINAL_SECONDS``
#: run; other values of ``--seconds`` scale it, never below MIN_OPS (the
#: samples a p90 needs).  Bursts and set-ups are fixed-size operations.
NOMINAL_SECONDS = 15
MIN_OPS = 100

#: Offset of the update-stream seed from the routing seed.
UPDATE_SEED_OFFSET = 12

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload."""

    topology: str
    prefixes: int  # per device (fixed by the fabric on fattrees)
    rounds: int  # fresh backends, each: set-up, burst, its slice of the operations
    setups: int  # set-ups behind the setup_s median (>= rounds)
    ops: int  # total operations at NOMINAL_SECONDS
    destinations: Optional[int] = None  # cap on plans (smoke only)


#: (workload, count) -> the first ``count`` rule updates of a stream, ready
#: to apply in order; a longer stream starts with the shorter one.
Stream = Callable[[Workload, int], List[RuleUpdate]]


# ---------------------------------------------------------------------------
# inputs


def _update_kind(update: RuleUpdate) -> str:
    """``insert`` / ``remove``; the library's stream names only its removals."""
    return "remove" if update.description.startswith("remove ") else "insert"


def build_multifield(topology_name: str, prefixes: int, seed: int,
                     destinations: Optional[int]) -> Workload:
    """``build_workload`` over the 5-tuple layout (104 variables); the
    library's builder hard-codes the destination-IP-only layout."""
    topology = load_dataset(topology_name, prefixes_per_device=prefixes)
    factory = PredicateFactory(DEFAULT_LAYOUT)
    fibs = install_routes(topology, factory, RouteConfig(seed=seed))
    plans = []
    for destination in topology.devices_with_prefixes()[:destinations]:
        ingresses = [d for d in topology.devices if d != destination]
        for cidr in topology.external_prefixes(destination):
            invariant = reachability_invariant(
                factory, topology, destination, cidr, ingresses
            )
            plans.append((invariant.name, plan_invariant(invariant, topology)))
    return Workload(topology_name, topology, factory, fibs, plans, "WAN")


@dataclass
class _Inserted:
    """A rule of the churn stream: where, what, and once the insert ran,
    the rule it created (the matching removal needs its id)."""

    device: str
    label: str
    rule: Optional[Rule] = None


def churn_updates(
    workload: Workload,
    count: int,
    seed: int,
    multifield: bool,
    error_rate: float = 0.05,
) -> List[RuleUpdate]:
    """``random_rule_updates``' stream with its removals: 70% insert, 30%
    remove (of a rule this stream inserted earlier, when there is one).

    An insert puts a high-priority rule at a random device for a random
    destination prefix, toward a downhill neighbour (uphill or sideways
    with ``error_rate`` -- an error the verifier must flag).  Its match is
    a random /26 of the prefix, or with ``multifield`` the whole prefix
    ``AND dst_port in [lo, hi] [AND proto = 6]``, built inside the
    operation as a device parsing a rule would.

    The library's function cannot be used for this: generated up front (as
    ``fleet_update_stream`` does) it emits inserts only, because its removal
    branch needs earlier updates *applied* before later ones are
    *generated*.  Here a removal names the slot of an earlier insert, which
    holds the rule once that insert has run, so the stream must be applied
    in order from its start.

    The stream is not stationary: outstanding rules grow by 0.4 per
    operation and an insert gets dearer with them.  A cap on outstanding
    rules would make it so, but then inserts and removals each take half
    of the operations and the median falls between the two cost modes
    (measured: p50 0.9-2.2 ms between 300-operation stretches of one run).
    """
    rng = random.Random(seed)
    topology, factory = workload.topology, workload.factory
    prefixes = [
        (device, cidr)
        for device in topology.devices_with_prefixes()
        for cidr in topology.external_prefixes(device)
    ]
    pending: List[_Inserted] = []
    updates: List[RuleUpdate] = []
    for _ in range(count):
        if pending and rng.random() < 0.3:
            slot = pending.pop(rng.randrange(len(pending)))

            def remove(slot: _Inserted = slot) -> None:
                assert slot.rule is not None  # its insert ran earlier
                workload.fibs[slot.device].remove(slot.rule.rule_id)

            updates.append(RuleUpdate(slot.device, f"remove {slot.label}", remove))
            continue
        destination, cidr = rng.choice(prefixes)
        device = rng.choice([d for d in topology.devices if d != destination])
        distances = topology.hop_distances(destination)
        neighbors = list(topology.neighbors(device))
        downhill = [
            peer for peer in neighbors if distances[peer] < distances[device]
        ]
        if rng.random() < error_rate or not downhill:
            others = [peer for peer in neighbors if peer not in downhill]
            next_hop = rng.choice(others or neighbors)
        else:
            next_hop = rng.choice(downhill)
        if multifield:
            low = rng.randrange(0, 60000)
            high = low + rng.randrange(1, 4000)
            tcp_only = rng.random() < 0.5
            label = f"{cidr}:{low}-{high}{'/tcp' if tcp_only else ''}"
        else:
            network = ipaddress.ip_network(cidr)
            cidr = str(
                rng.choice(
                    list(network.subnets(new_prefix=max(26, network.prefixlen)))
                )
            )
            low = high = 0
            tcp_only = False
            label = cidr
        slot = _Inserted(device, label)
        pending.append(slot)

        def insert(
            slot: _Inserted = slot,
            cidr: str = cidr,
            low: int = low,
            high: int = high,
            tcp_only: bool = tcp_only,
            next_hop: str = next_hop,
        ) -> None:
            match = factory.dst_prefix(cidr)
            if multifield:
                match = match & factory.field_range("dst_port", low, high)
            if tcp_only:
                match = match & factory.field_eq("proto", 6)
            slot.rule = workload.fibs[slot.device].insert(
                PRIORITY_ERROR, match, Forward([next_hop]), label=slot.label
            )

        updates.append(
            RuleUpdate(device, f"insert {slot.label} at {device} -> {next_hop}", insert)
        )
    return updates


def connected_link_events(workload: Workload, count: int, seed: int
                          ) -> List[Tuple[str, str]]:
    """``count`` seeded links whose failure keeps the graph connected."""
    rng = random.Random(seed)
    topology = workload.topology
    links = [
        link.endpoints
        for link in topology.links
        if topology.is_connected(FaultScene([link.endpoints]))
    ]
    return [rng.choice(links) for _ in range(count)]


# ---------------------------------------------------------------------------
# backends


def state_facts(workload: Workload, verifiers: Dict[str, Any]) -> Dict[str, float]:
    """Layer facts read off an in-process backend's state."""
    return {
        "bdd.nodes": workload.factory.bdd.num_nodes,
        "lec_entries": sum(len(verifier.lec) for verifier in verifiers.values()),
        "dpvnet_nodes": sum(plan.dpvnet.num_nodes for _, plan in workload.plans),
    }


class SimBackend(Backend):
    """The discrete-event simulator over one built workload."""

    clock = "model"

    def __init__(
        self,
        build: Callable[[], Workload],
        make_ops: Callable[[Workload, SimulatedNetwork, int, int], List[Op]],
    ) -> None:
        self._build = build
        self._make_ops = make_ops

    async def setup(self) -> None:
        self.workload = self._build()
        self.network = SimulatedNetwork(
            self.workload.topology, self.workload.fibs, self.workload.factory
        )

    async def burst(self) -> float:
        return self.network.install_plans(dict(self.workload.plans))

    def ops(self, first: int, count: int) -> List[Op]:
        return self._make_ops(self.workload, self.network, first, count)

    async def wire(self) -> Tuple[int, int]:
        # The simulator has no session layer: all traffic is counting.
        return self.network.stats.bytes, self.network.stats.messages

    async def holds(self) -> Dict[str, bool]:
        return {
            plan_id: self.network.holds(plan_id)
            for plan_id, _ in self.workload.plans
        }

    def oracle_inputs(self) -> Workload:
        return self.workload

    def facts(self) -> Dict[str, float]:
        return state_facts(self.workload, self.network.verifiers)


def update_ops(
    stream: Stream,
) -> Callable[[Workload, SimulatedNetwork, int, int], List[Op]]:
    def make(workload: Workload, network: SimulatedNetwork,
             first: int, count: int) -> List[Op]:
        return [
            Op(
                _update_kind(update),
                update.description,
                lambda u=update: network.fib_update(u.device, u.apply),
            )
            for update in stream(workload, first + count)[first:]
        ]

    return make


def link_event_ops(
    seed: int,
) -> Callable[[Workload, SimulatedNetwork, int, int], List[Op]]:
    def make(workload: Workload, network: SimulatedNetwork,
             first: int, count: int) -> List[Op]:
        ops: List[Op] = []
        pairs = (first + count + 1) // 2
        for a, b in connected_link_events(workload, pairs, seed):
            ops.append(Op("fail", f"fail {a}-{b}",
                          lambda a=a, b=b: network.fail_link(a, b)))
            ops.append(Op("recover", f"recover {a}-{b}",
                          lambda a=a, b=b: network.recover_link(a, b)))
        return ops[first:first + count]

    return make


class RuntimeBackend(Backend):
    """One asyncio agent per device over real loopback TCP sockets."""

    clock = "wall"

    def __init__(
        self,
        build: Callable[[], Workload],
        stream: Stream,
    ) -> None:
        self._build = build
        self._stream = stream
        self.cluster: Optional[RuntimeCluster] = None

    async def setup(self) -> None:
        self.workload = self._build()
        self.cluster = RuntimeCluster(
            self.workload.topology, self.workload.fibs, self.workload.factory
        )
        await self.cluster.start()

    async def burst(self) -> float:
        assert self.cluster is not None
        return await self.cluster.install_plans(dict(self.workload.plans))

    def ops(self, first: int, count: int) -> List[Op]:
        cluster = self.cluster
        assert cluster is not None
        return [
            Op(
                _update_kind(update),
                update.description,
                lambda u=update: cluster.fib_update(u.device, u.apply),
            )
            for update in self._stream(self.workload, first + count)[first:]
        ]

    async def wire(self) -> Tuple[int, int]:
        assert self.cluster is not None
        metrics = self.cluster.metrics
        return metrics.total_bytes, metrics.total_messages

    async def holds(self) -> Dict[str, bool]:
        assert self.cluster is not None
        return {
            plan_id: self.cluster.holds(plan_id)
            for plan_id, _ in self.workload.plans
        }

    def oracle_inputs(self) -> Workload:
        return self.workload

    def facts(self) -> Dict[str, float]:
        assert self.cluster is not None
        return {
            **state_facts(self.workload, self.cluster.verifiers),
            "reconnects": self.cluster.metrics.total_reconnects,
            "decode_errors": self.cluster.metrics.total_decode_errors,
        }

    async def close(self) -> None:
        if self.cluster is not None:
            await self.cluster.stop()


def free_port_range(width: int, start: int = 10240, stop: int = 32768) -> int:
    """First base port from a random offset whose ``width`` consecutive
    loopback ports all bind now (the fleet's port plan is contiguous).
    The search stays below Linux's ephemeral range, whose ports outgoing
    connections take at random between this probe and the workers' bind."""
    base = random.SystemRandom().randrange(start, stop - width)
    for candidate in list(range(base, stop - width, width)) + list(
        range(start, base, width)
    ):
        held: List[socket.socket] = []
        try:
            for port in range(candidate, candidate + width):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                held.append(sock)
                sock.bind(("127.0.0.1", port))
            return candidate
        except OSError:
            continue
        finally:
            for sock in held:
                sock.close()
    raise OSError(f"no free range of {width} loopback ports")


class FleetBackend(Backend):
    """Worker processes hosting shards of agents, driven by the launcher
    over its control channel; the launcher sees no verification state."""

    clock = "wall"

    def __init__(self, size: Size, seed: int) -> None:
        topology = fleet_topology(size.topology)
        # control span + a DVM and a telemetry port per device + retry window
        width = CONTROL_SPAN + 2 * topology.num_devices + 8
        # All destinations unless capped, 8 sampled ingresses per plan.
        self.spec = FleetSpec(
            topology=size.topology,
            workers=2,
            destinations=size.destinations or 0,
            ingresses=8,
            seed=seed,
            base_port=free_port_range(width),
        )
        self.launcher: Optional[FleetLauncher] = None
        self._run_dir: Optional[str] = None
        # Local copy of the workload: names the operations, then gives the
        # oracle its FIBs (workers rebuild the same one from the spec).
        self._local = build_fleet_workload(self.spec)
        self._stream: List[RuleUpdate] = []
        self._reconnects = 0

    async def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self._run_dir = tempfile.mkdtemp(prefix="fleet-", dir=OUT_DIR)
        self.launcher = FleetLauncher(self.spec, run_dir=self._run_dir)
        try:
            await self.launcher.start()
        except FleetError as exc:
            raise FleetError(f"{exc}; {self._worker_logs()}") from exc

    def _worker_logs(self) -> str:
        """The last lines each worker wrote (the run directory is removed)."""
        assert self.launcher is not None
        tails = []
        for handle in self.launcher.workers.values():
            with open(handle.log_path, errors="replace") as log:
                tails.append(f"worker {handle.index}: {log.read()[-400:]!r}")
        return "; ".join(tails)

    async def burst(self) -> float:
        assert self.launcher is not None
        return await self.launcher.install_plans()

    def ops(self, first: int, count: int) -> List[Op]:
        launcher = self.launcher
        assert launcher is not None
        # Workers derive update i of ``total`` from the same spec.
        total = first + count
        self._stream = fleet_update_stream(self.spec, self._local, total)[first:]
        return [
            Op(
                _update_kind(update),
                update.description,
                lambda i=index: launcher.apply_update(i, total),
            )
            for index, update in enumerate(self._stream, first)
        ]

    async def wire(self) -> Tuple[int, int]:
        assert self.launcher is not None
        totals = await self.launcher.metrics()
        self._reconnects = totals["reconnects"]
        return totals["bytes"], totals["messages"]

    async def holds(self) -> Dict[str, bool]:
        assert self.launcher is not None
        return self.launcher.holds(await self.launcher.verdicts())

    def oracle_inputs(self) -> Workload:
        for update in self._stream:
            update.apply()
        return self._local

    def facts(self) -> Dict[str, float]:
        return {"reconnects": self._reconnects}

    async def close(self) -> None:
        try:
            if self.launcher is not None:
                await self.launcher.stop()
                for handle in self.launcher.workers.values():
                    handle.process.wait()
        finally:
            if self._run_dir is not None:
                shutil.rmtree(self._run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# definitions


@dataclass(frozen=True)
class WorkloadDef:
    """One workload: its sizes and how to build it (``BENCHMARK.json`` and
    the README say why it exists)."""

    name: str
    note: str
    size: Size
    smoke: Size
    #: (size, seed) -> a fresh backend
    backend: Callable[[Size, int], Backend]
    #: Layer that owns the backend-reported times ("" on the simulator).
    socket_layer: str = ""
    #: Trace the burst too (the churn workloads trace set-up and updates;
    #: their burst runs the code path ``lan_burst`` already profiles).
    trace_burst: bool = True
    #: Every round builds the same inputs, so its burst's wire counts
    #: must repeat.
    same_burst_each_round: bool = False
    include_children_rss: bool = False


def _dstip(size: Size, seed: int) -> Callable[[], Workload]:
    return lambda: build_workload(
        size.topology,
        seed=seed,
        prefixes_per_device=size.prefixes,
        max_destinations=size.destinations,
    )


def _library_stream(seed: int) -> Stream:
    return lambda workload, count: random_rule_updates(
        workload, count, seed=seed + UPDATE_SEED_OFFSET
    )


def _churn_stream(seed: int, multifield: bool) -> Stream:
    return lambda workload, count: churn_updates(
        workload, count, seed + UPDATE_SEED_OFFSET, multifield
    )


def _lan_burst(size: Size, seed: int) -> Backend:
    return SimBackend(_dstip(size, seed), link_event_ops(seed))


def _fibheavy_churn(size: Size, seed: int) -> Backend:
    return SimBackend(
        _dstip(size, seed), update_ops(_churn_stream(seed, multifield=False))
    )


def _multifield_churn(size: Size, seed: int) -> Backend:
    return SimBackend(
        lambda: build_multifield(
            size.topology, size.prefixes, seed, size.destinations
        ),
        update_ops(_churn_stream(seed, multifield=True)),
    )


def _tcp_runtime(size: Size, seed: int) -> Backend:
    return RuntimeBackend(_dstip(size, seed), _library_stream(seed))


def _dc_fleet(size: Size, seed: int) -> Backend:
    return FleetBackend(size, seed)


SIMULATED_WAN = "simulator; injected synthetic WAN link latency (ms)"
LOOPBACK = "real sockets over the host's loopback interface, no injected delay"

#: The churn stream must be applied from its start, so those two workloads
#: have one round; the others give each round the next slice of theirs.
WORKLOADS: Tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="lan_burst",
        note="simulator; injected link latency 10 us (LAN)",
        size=Size("STFD", prefixes=1, rounds=3, setups=5, ops=102),
        smoke=Size("STFD", 1, rounds=2, setups=2, ops=8, destinations=2),
        backend=_lan_burst,
        same_burst_each_round=True,
    ),
    WorkloadDef(
        name="fibheavy_churn",
        note=SIMULATED_WAN,
        size=Size("INet2", prefixes=64, rounds=1, setups=3, ops=1800),
        smoke=Size("INet2", 2, rounds=1, setups=1, ops=30),
        backend=_fibheavy_churn,
        trace_burst=False,
    ),
    WorkloadDef(
        name="multifield_churn",
        note=SIMULATED_WAN,
        size=Size("B4-13", prefixes=16, rounds=1, setups=3, ops=1800),
        smoke=Size("B4-13", 1, rounds=1, setups=1, ops=30, destinations=3),
        backend=_multifield_churn,
        trace_burst=False,
    ),
    WorkloadDef(
        name="tcp_runtime",
        note=LOOPBACK,
        size=Size("INet2", prefixes=8, rounds=3, setups=3, ops=114),
        smoke=Size("INet2", 1, rounds=1, setups=1, ops=6),
        backend=_tcp_runtime,
        socket_layer="runtime",
    ),
    WorkloadDef(
        name="dc_fleet",
        note=LOOPBACK,
        size=Size("ft8", prefixes=1, rounds=1, setups=3, ops=100),
        smoke=Size("ft4", 1, rounds=1, setups=1, ops=4),
        backend=_dc_fleet,
        socket_layer="fleet",
        include_children_rss=True,
    ),
)

BY_NAME = {definition.name: definition for definition in WORKLOADS}


def op_count(definition: WorkloadDef, seconds: float, smoke: bool) -> int:
    if smoke:
        return definition.smoke.ops
    return max(MIN_OPS, round(definition.size.ops * seconds / NOMINAL_SECONDS))


async def run_workload(
    definition: WorkloadDef,
    measurement: Measurement,
    seed: int,
    seconds: float,
    smoke: bool,
) -> None:
    size = definition.smoke if smoke else definition.size
    ops_per_round = -(-op_count(definition, seconds, smoke) // size.rounds)
    # Even, so that a round's slice of link events starts on a failure.
    ops_per_round += ops_per_round % 2
    await run_rounds(
        measurement,
        lambda: definition.backend(size, seed),
        rounds=size.rounds,
        ops_per_round=ops_per_round,
        extra_setups=size.setups - size.rounds,
        trace_burst=definition.trace_burst,
        same_burst_each_round=definition.same_burst_each_round,
    )
