"""The interest index decides which node states a rule update visits,
never what they compute.

One seeded churn stream is driven through two worlds built from the same
inputs: the verifier as shipped, and a reference whose ``on_fib_changed``
is the linear scan over every node of every plan (kept here).  The
recounts made (which node, which region, in which order), the frames (as
wire bytes, in order), LocCIB entries, verdicts and violations must be
equal after every step.
"""

import ipaddress
import random
from collections import deque

from repro.bdd.manager import BDDManager
from repro.bench.workloads import build_workload
from repro.dataplane.actions import Forward
from repro.dataplane.lec import apply_lec_update, build_lec_table, diff_lec_tables
from repro.dataplane.routes import PRIORITY_ERROR
from repro.dvm.messages import SubscribeMessage, encode_message
from repro.dvm.verifier import OnDeviceVerifier
from repro.packetspace.transform import Rewrite
from repro.planner import plan_invariant
from repro.spec import library
from tests.dvm.test_local_counts import local_counts


class ScanVerifier(OnDeviceVerifier):
    """Reference: ``_affected_region`` against every node of every plan."""

    def on_fib_changed(self):
        dirty = self.fib.consume_dirty()
        if dirty is None:
            return []
        if dirty.is_full:
            old = self.lec
            self.lec = build_lec_table(self.fib, self.factory)
            changes = diff_lec_tables(old, self.lec)
        else:
            self.lec, changes = apply_lec_update(
                self.lec, self.fib, self.factory, dirty
            )
        if not changes:
            return []
        changed_region = self.factory.union(p for (p, _, _) in changes)
        outgoing = []
        for context in self._contexts.values():
            if context.plan.mode == "local":
                self._run_local_checks(context)
                continue
            for state in context.bottom_up:
                region = self._affected_region(state, changed_region)
                outgoing.extend(self._recompute(context, state, region))
        return outgoing


def recording(verifier_class, log):
    """``verifier_class`` logging every recount of a non-empty region."""

    class Recording(verifier_class):
        def _recompute(self, context, state, region):
            effective = region & state.interest
            if not effective.is_empty:
                log.append(
                    (self.device, context.plan_id, state.task.node_id,
                     effective.to_bytes())
                )
            return super()._recompute(context, state, region)

    return Recording


class World:
    """One verifier per INet2 device behind a synchronous message pump."""

    def __init__(self, verifier_class, seed):
        workload = build_workload("INet2", seed=seed, prefixes_per_device=2)
        self.topology = workload.topology
        self.factory = workload.factory
        self.fibs = workload.fibs
        self.plans = dict(workload.plans)
        source, destination = self.topology.devices[0], self.topology.devices[-1]
        cidr = self.topology.external_prefixes(destination)[0]
        self.plans["rcdc"] = plan_invariant(
            library.all_shortest_path_availability(
                self.factory.dst_prefix(cidr), source, destination
            ),
            self.topology,
        )
        assert self.plans["rcdc"].mode == "local"
        self.recounts = []  # (device, plan, node, region bytes), in order
        verifier_class = recording(verifier_class, self.recounts)
        self.verifiers = {
            device: verifier_class(
                device, self.factory, self.fibs[device],
                self.topology.neighbors(device),
            )
            for device in self.topology.devices
        }
        self.queue = deque()
        self.frames = []  # (sender, receiver, wire bytes), in emission order
        self.subscribes = 0
        self.inserted = []  # (device, rule) of the stream's own rules
        for plan_id in self.plans:
            self.install(plan_id)

    def _emit(self, sender, outgoing):
        for receiver, message in outgoing:
            self.frames.append((sender, receiver, encode_message(message)))
            self.subscribes += isinstance(message, SubscribeMessage)
            self.queue.append((receiver, message))
        while self.queue:
            receiver, message = self.queue.popleft()
            self._emit(receiver, self.verifiers[receiver].on_message(message))

    def install(self, plan_id):
        for device, verifier in self.verifiers.items():
            self._emit(device, verifier.install_plan(plan_id, self.plans[plan_id]))

    def apply(self, op):
        kind = op[0]
        if kind == "install":
            self.install(op[1])
            return
        if kind == "insert":
            _, device, cidr, hop, rewrite_to = op
            rewrite = Rewrite({"dst_ip": rewrite_to}) if rewrite_to else None
            rule = self.fibs[device].insert(
                PRIORITY_ERROR,
                self.factory.dst_prefix(cidr),
                Forward([hop], rewrite=rewrite),
                label=cidr,
            )
            if rewrite is None:  # the rewriting rule stays for the whole stream
                self.inserted.append((device, rule))
        elif kind == "remove":
            device, rule = self.inserted.pop(op[1] % len(self.inserted))
            self.fibs[device].remove(rule.rule_id)
        else:  # replace the action of one of the stream's rules
            device, rule = self.inserted[op[1] % len(self.inserted)]
            hops = self.topology.neighbors(device)
            self.fibs[device].replace_action(
                rule.rule_id, Forward([hops[op[2] % len(hops)]])
            )
        self._emit(device, self.verifiers[device].on_fib_changed())

    def snapshot(self):
        """Everything a verdict is read from, in a factory-neutral form."""
        loc, verdicts = [], []
        for device, verifier in self.verifiers.items():
            for plan_id in self.plans:
                loc.extend(
                    (device, plan_id, node_id, predicate.to_bytes(), counts)
                    for node_id, predicate, counts in local_counts(verifier, plan_id)
                )
                verdicts.extend(
                    (device, plan_id, v.ingress, v.predicate.to_bytes(), v.counts, v.holds)
                    for v in verifier.root_verdicts(plan_id)
                )
        violations = [
            (v.device, v.plan_id, v.node_id, v.predicate.to_bytes(), v.reason)
            for verifier in self.verifiers.values()
            for v in verifier.violations
        ]
        return loc, verdicts, violations


def churn_stream(world, count, seed):
    """Operations as plain data, so both worlds apply the same ones."""
    rng = random.Random(seed)
    topology = world.topology
    prefixes = [
        (device, cidr)
        for device in topology.devices_with_prefixes()
        for cidr in topology.external_prefixes(device)
    ]
    counting_plans = [plan_id for plan_id in world.plans if plan_id != "rcdc"]
    script = {
        5: "rewrite",
        20: ("install", counting_plans[7]),  # re-install of a live plan
        36: ("install", "rcdc"),
    }
    ops, outstanding = [], 0
    target = None  # ((owner, cidr), address, devices) of the rewrite
    for index in range(count):
        step = script.get(index)
        if isinstance(step, tuple):
            ops.append(step)
            continue
        roll = rng.random() if step is None else 1.0
        if outstanding and roll < 0.25:
            ops.append(("remove", rng.randrange(1 << 16)))
            outstanding -= 1
            continue
        if outstanding and roll < 0.40:
            ops.append(("replace", rng.randrange(1 << 16), rng.randrange(1 << 16)))
            continue
        destination, cidr = rng.choice(prefixes)
        device = rng.choice([d for d in topology.devices if d != destination])
        on_target = target is not None and roll > 0.75
        if on_target:
            # Churn on the rewritten address, at the rewriting device and
            # at its next hop: only the rewrite's pre-image and the
            # interest a SUBSCRIBE grew tie these updates to the plan.
            (destination, cidr), address, devices = target
            device = rng.choice(devices)
        distances = topology.hop_distances(destination)
        neighbors = list(topology.neighbors(device))
        downhill = [n for n in neighbors if distances[n] < distances[device]]
        # 15% uphill or sideways (on the target: any neighbour, so the
        # action keeps changing): an error the verifier must flag.
        uphill = on_target or (step is None and rng.random() < 0.15)
        hop = rng.choice(neighbors if uphill or not downhill else downhill)
        network = ipaddress.ip_network(cidr)
        match = rng.choice(list(network.subnets(new_prefix=26)))
        if on_target:
            match = ipaddress.ip_network((address, 26), strict=False)
        elif step is None and rng.random() < 0.2:
            # A match spanning several plans' prefixes: recount order shows.
            match = network.supernet(new_prefix=rng.choice([23, 21, 19]))
        rewrite_to = 0
        if step == "rewrite":
            # The next hop gets a SUBSCRIBE for an address of *another*
            # prefix, which grows that node's interest.
            owner, other = rng.choice(
                [p for p in prefixes if p[0] not in (destination, device, hop)]
            )
            rewrite_to = int(ipaddress.ip_network(other).network_address) + 77
            target = ((owner, other), rewrite_to, (device, hop))
        ops.append(("insert", device, str(match), hop, rewrite_to))
        outstanding += not rewrite_to
    return ops


def test_index_and_full_scan_agree_on_a_churn_stream():
    indexed = World(OnDeviceVerifier, seed=5)
    scanned = World(ScanVerifier, seed=5)
    assert indexed.frames == scanned.frames
    assert indexed.snapshot() == scanned.snapshot()
    mark = len(indexed.frames)

    quiet = 0
    for op in churn_stream(indexed, count=80, seed=17):
        indexed.apply(op)
        scanned.apply(op)
        assert indexed.recounts == scanned.recounts, op
        assert indexed.frames[mark:] == scanned.frames[mark:], op
        quiet += len(indexed.frames) == mark
        mark = len(indexed.frames)
        assert indexed.snapshot() == scanned.snapshot(), op

    # The stream did exercise what it is there for.
    assert indexed.subscribes >= 1
    assert 0 < quiet < 80  # some updates stay local, some propagate
    verdicts = indexed.snapshot()[1]
    assert any(not holds for *_, holds in verdicts)  # uphill errors flagged
    assert any(holds for *_, holds in verdicts)


class TopLevelBddOps:
    """Counts BDD operator calls made from outside the manager."""

    NAMES = ("apply_and", "apply_or", "apply_xor", "apply_diff", "negate",
             "exists", "restrict")

    def __init__(self, monkeypatch):
        self.count = 0
        self._inside = False
        for name in self.NAMES:
            monkeypatch.setattr(
                BDDManager, name, self._counted(getattr(BDDManager, name))
            )

    def _counted(self, operator):
        def call(manager, *args):
            if self._inside:
                return operator(manager, *args)
            self.count += 1
            self._inside = True
            try:
                return operator(manager, *args)
            finally:
                self._inside = False

        return call


def bdd_ops_per_update(ops, prefixes_per_device, updates=40):
    """Mean top-level BDD operations of one rule update at one device
    that holds every plan of the network: inserts of a /26 toward a
    neighbour, each later removed."""
    workload = build_workload(
        "INet2", seed=11, prefixes_per_device=prefixes_per_device
    )
    topology, factory = workload.topology, workload.factory
    device = topology.devices[4]
    fib = workload.fibs[device]
    verifier = OnDeviceVerifier(device, factory, fib, topology.neighbors(device))
    for plan_id, plan in workload.plans:
        verifier.install_plan(plan_id, plan)
    rng = random.Random(3)
    cidrs = [
        cidr
        for owner in topology.devices_with_prefixes()
        if owner != device
        for cidr in topology.external_prefixes(owner)
    ]
    matches = [
        factory.dst_prefix(
            str(rng.choice(list(ipaddress.ip_network(rng.choice(cidrs)).subnets(new_prefix=26))))
        )
        for _ in range(updates // 2)
    ]
    before = ops.count
    rules = []
    for match in matches:
        hop = rng.choice(topology.neighbors(device))
        rules.append(fib.insert(PRIORITY_ERROR, match, Forward([hop])))
        verifier.on_fib_changed()
    for rule in rules:
        fib.remove(rule.rule_id)
        verifier.on_fib_changed()
    return (ops.count - before) / (2 * len(matches))


def test_update_work_does_not_grow_with_the_tables(monkeypatch):
    """8x the rules and plans on the device, the same work per update
    (counts, not time): the update pays for what it touches."""
    ops = TopLevelBddOps(monkeypatch)
    small = bdd_ops_per_update(ops, prefixes_per_device=8)
    large = bdd_ops_per_update(ops, prefixes_per_device=64)
    assert small > 0
    assert large <= 1.5 * small, (small, large)
