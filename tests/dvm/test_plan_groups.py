"""Plans that give every device the same tasks install as one group.

``AgentBackend.inject_plans`` installs each group of a batch once, under
its first member's id and over the union of the members' packet spaces,
and answers for every member by cutting the group's verdicts down to the
member's own space.  Checked here:

* INet2 at 4 prefixes per device, installed as one batch and one plan at
  a time, agrees member by member -- ``holds`` and the verdict function
  (region -> holds) -- between the two installs and with the centralized
  oracle, through an erroneous churn stream, a planned link failure and
  an unplanned 3-link scene, on the simulator and on the TCP runtime;
* a batch whose plans all differ in shape emits the frames the per-plan
  install loop emitted before groups existed, ids and bytes included;
* a group's CIB tables cost a rule update what its members' own tables
  would: the BDD operations ``repro/dvm/cib.py`` issues plus the CIB
  entries it visits stay within 1.25x of one plan per install;
* forensics follow the group: the install record lists the members and
  ``find_verdict(plan=<member>)`` finds the group's verdict.
"""

import ipaddress
import json
import random
import sys
from collections import deque
from dataclasses import replace

from repro.baselines.flash import FlashVerifier
from repro.bench.workloads import build_workload
from repro.cli import main
from repro.dataplane.actions import Drop, Forward
from repro.dataplane.routes import PRIORITY_ERROR
from repro.dvm import cib
from repro.dvm.agent import AgentBackend, group_plans
from repro.dvm.messages import encode_message
from repro.obs.flight import find_verdict, install_group, merge_dumps
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import install_dvm_schema
from repro.packetspace.index import PredicateIndex
from repro.packetspace.predicate import Predicate
from repro.planner import plan_invariant
from repro.runtime.cluster import RuntimeCluster
from repro.simulator.network import SimulatedNetwork
from repro.topology.graph import FaultScene
from tests.runtime.conftest import FAST_CLUSTER, run_async

#: Fast timers, but a hold time no busy event loop outlasts: a session
#: declared dead mid-checkpoint would make one install read differently.
STEADY_CLUSTER = dict(FAST_CLUSTER, hold_multiplier=40.0)

#: The planned fault scene, and a failure set that matches none.
PLANNED = ("INet2-r0", "INet2-r1")
UNPLANNED = (
    ("INet2-r1", "INet2-r2"),
    ("INet2-r2", "INet2-r3"),
    ("INet2-r1", "INet2-r4"),
)


class SyncNetwork(AgentBackend):
    """Every device agent behind one FIFO of frames: deterministic, with
    no timing, and every frame kept as (sender, receiver, wire bytes)."""

    backend = "sync"

    def __init__(self, workload, flight=False):
        super().__init__(
            workload.topology,
            workload.fibs,
            workload.factory,
            install_dvm_schema(MetricsRegistry()),
            flight,
            1 << 16,
        )
        for device in workload.topology.devices:
            self._spawn(device)
        self.frames = []
        self._queue = deque()

    def _inject(self, devices, event, *args, **fields):
        for device in devices:
            self._run(device, self.agents[device].event(event, *args, **fields))
        while self._queue:
            sender, receiver, message, clock = self._queue.popleft()
            self._run(receiver, self.agents[receiver].frame(sender, message, clock))

    def _run(self, device, step):
        for receiver, message in step():
            clock = self.agents[device].stamp(receiver, message)
            self.frames.append((device, receiver, encode_message(message)))
            self._queue.append((device, receiver, message, clock))

    def fib_update(self, device, mutate):
        mutate()
        self._inject((device,), "fib_update")


def with_fault_scene(workload):
    """The workload's plans, re-planned to tolerate :data:`PLANNED`."""
    scene = FaultScene([PLANNED])
    workload.plans = [
        (
            plan_id,
            plan_invariant(
                replace(plan.invariant, fault_scenes=(scene,)), workload.topology
            ),
        )
        for plan_id, plan in workload.plans
    ]
    return workload


def inet2(prefixes, seed=5):
    return build_workload("INet2", prefixes_per_device=prefixes, seed=seed)


def churn(workload, count, seed):
    """Apply-in-order rule updates: 70% insert a /26 of a random prefix at
    a random device toward a random neighbour (often not downhill, an
    error to flag), 30% remove a rule the stream inserted earlier."""
    rng = random.Random(seed)
    topology = workload.topology
    prefixes = [
        (device, cidr)
        for device in topology.devices_with_prefixes()
        for cidr in topology.external_prefixes(device)
    ]
    pending, updates = [], []
    for _ in range(count):
        if pending and rng.random() < 0.3:
            slot = pending.pop(rng.randrange(len(pending)))
            updates.append(
                (slot[0], lambda s=slot: workload.fibs[s[0]].remove(s[1][0].rule_id))
            )
            continue
        destination, cidr = rng.choice(prefixes)
        device = rng.choice([d for d in topology.devices if d != destination])
        hop = rng.choice(list(topology.neighbors(device)))
        part = rng.choice(list(ipaddress.ip_network(cidr).subnets(new_prefix=26)))
        slot = (device, [])
        pending.append(slot)

        def insert(s=slot, part=str(part), hop=hop):
            s[1].append(
                workload.fibs[s[0]].insert(
                    PRIORITY_ERROR,
                    workload.factory.dst_prefix(part),
                    Forward([hop]),
                    label=part,
                )
            )

        updates.append((device, insert))
    return updates


def blackhole(workload, plan_id):
    """``(device, mutate)``: the destination of ``plan_id`` drops a /26 of
    its prefix -- that member fails, the rest of its group holds."""
    invariant = dict(workload.plans)[plan_id].invariant
    (destination,) = {
        device
        for device in workload.topology.devices_with_prefixes()
        if invariant.name.startswith(f"reach-{device}-")
    }
    cidr = invariant.name.rsplit("-", 1)[1]
    part = str(next(ipaddress.ip_network(cidr).subnets(new_prefix=26)))
    return destination, lambda: workload.fibs[destination].insert(
        PRIORITY_ERROR, workload.factory.dst_prefix(part), Drop(), label="bh"
    )


# -- the read-out of a member ---------------------------------------------------


def verdict_function(backend, plan_id):
    """``{(ingress, holds, counts): wire form of where}``."""
    merged = {}
    for verdict in backend.verdicts(plan_id):
        key = (verdict.ingress, verdict.holds, verdict.counts)
        held = merged.get(key)
        merged[key] = verdict.predicate if held is None else held | verdict.predicate
    return {key: predicate.to_bytes() for key, predicate in merged.items()}


def read_out(backend, plan_ids):
    return {
        plan_id: (
            backend.holds(plan_id),
            verdict_function(backend, plan_id),
            sorted(backend.read_out(plan_id)[2]),
        )
        for plan_id in plan_ids
    }


def oracle_holds(workload):
    """Centralized Algorithm 1 over the workload's FIBs (every link up)."""
    oracle = FlashVerifier(workload.factory)
    oracle.load_snapshot(workload.fibs)
    failing = set(oracle.verify(workload.plans).failing_plans)
    return oracle, {plan_id: plan_id not in failing for plan_id, _ in workload.plans}


class Lockstep:
    """One script of operations on two backends over identical inputs:
    ``grouped`` installed the plans as one batch, ``single`` one at a
    time.  Every checkpoint compares the two read-outs, member by member,
    and with every link up compares them with the oracle."""

    def __init__(self, grouped, single):
        self.worlds = (grouped, single)
        self.plan_ids = [plan_id for plan_id, _ in grouped[0].plans]
        self.updates = [
            [blackhole(workload, self.plan_ids[1])] + churn(workload, 11, seed=9)
            for workload, _ in self.worlds
        ]
        self.groups = [g.members for g in group_plans(dict(grouped[0].plans))]
        self.checked = 0
        #: Checkpoints at which one member of a group held and another not.
        self.split = 0

    def check(self, links_up, read):
        grouped, single = (read(backend) for _, backend in self.worlds)
        assert grouped == single
        self.split += any(
            len({grouped[member][0] for member in members}) > 1
            for members in self.groups
        )
        if links_up:
            workload = self.worlds[0][0]
            oracle, expected = oracle_holds(workload)
            assert {p: held for p, (held, _, _) in grouped.items()} == expected
            # Region by region: every part a member holds on holds.
            plans = dict(workload.plans)
            for plan_id in self.plan_ids:
                holding = [
                    verdict.predicate
                    for verdict in self.worlds[0][1].verdicts(plan_id)
                    if verdict.holds
                ]
                if holding:
                    region = workload.factory.union(holding)
                    assert oracle.check_plan(plans[plan_id], region)
        self.checked += 1


def run_script(step, lockstep, read):
    """The shared script; ``step(backend, name, *args)`` runs one
    operation to quiescence."""
    lockstep.check(True, read)
    for index in range(len(lockstep.updates[0])):
        for (_, backend), updates in zip(lockstep.worlds, lockstep.updates):
            yield step(backend, "fib_update", *updates[index])
        if index % 4 == 3:
            lockstep.check(True, read)
    for name, links_up in (("fail", False), ("recover", True)):
        for _, backend in lockstep.worlds:
            yield step(backend, name, PLANNED)
        lockstep.check(links_up, read)
    for name, links_up in (("fail", False), ("recover", True)):
        for link in UNPLANNED:
            for _, backend in lockstep.worlds:
                yield step(backend, name, link)
        if name == "fail":
            lockstep.check(False, read)
            grouped = read(lockstep.worlds[0][1])
            assert not any(held for held, _, _ in grouped.values())
            assert all(unplanned for _, _, unplanned in grouped.values())
        else:
            lockstep.check(True, read)


def test_grouped_install_reads_out_as_one_plan_at_a_time_on_the_simulator():
    worlds = []
    for batch in (True, False):
        workload = with_fault_scene(inet2(4))
        network = SimulatedNetwork(workload.topology, workload.fibs, workload.factory)
        if batch:
            network.install_plans(dict(workload.plans))
        else:
            for plan_id, plan in workload.plans:
                network.install_plan(plan_id, plan)
        worlds.append((workload, network))
    grouped, single = worlds
    assert len(group_plans(dict(grouped[0].plans))) == 9  # 36 plans

    def step(network, name, *args):
        if name == "fib_update":
            network.fib_update(*args)
        elif name == "fail":
            network.fail_link(*args[0])
        else:
            network.recover_link(*args[0])

    lockstep = Lockstep(grouped, single)
    for _ in run_script(step, lockstep, lambda n: read_out(n, lockstep.plan_ids)):
        pass
    assert lockstep.checked == 8 and lockstep.split
    assert grouped[1].stats.messages < single[1].stats.messages / 2


def test_grouped_install_reads_out_as_one_plan_at_a_time_on_the_runtime():
    async def scenario():
        worlds = []
        try:
            for batch in (True, False):
                workload = with_fault_scene(inet2(4))
                cluster = RuntimeCluster(
                    workload.topology,
                    workload.fibs,
                    workload.factory,
                    http_enabled=False,
                    **STEADY_CLUSTER,
                )
                worlds.append((workload, cluster))
                await cluster.start()
                if batch:
                    await cluster.install_plans(dict(workload.plans))
                else:
                    for plan_id, plan in workload.plans:
                        await cluster.install_plan(plan_id, plan)
            lockstep = Lockstep(*worlds)

            async def step(cluster, name, *args):
                if name == "fib_update":
                    await cluster.fib_update(*args)
                elif name == "fail":
                    await cluster.fail_link(*args[0])
                else:
                    await cluster.recover_link(*args[0])

            for operation in run_script(
                step, lockstep, lambda c: read_out(c, lockstep.plan_ids)
            ):
                await operation
            return lockstep.checked, lockstep.split
        finally:
            for _, cluster in worlds:
                await cluster.stop()

    checked, split = run_async(scenario())
    assert checked == 8 and split


def test_a_batch_of_distinct_shapes_installs_as_the_per_plan_loop_did():
    """One prefix per destination: every group has one member, and it is
    the member's own plan object under its own id."""
    networks = []
    for batch in (True, False):
        workload = inet2(1)
        plans = dict(workload.plans)
        network = SyncNetwork(workload)
        if batch:
            groups = group_plans(plans)
            assert [(g.plan_id, g.members) for g in groups] == [
                (plan_id, (plan_id,)) for plan_id in plans
            ]
            assert all(group.plan is plans[group.plan_id] for group in groups)
            network.inject_plans(plans)
        else:
            for plan_id, plan in plans.items():  # what inject_plans was
                network._inject(plan.devices(), "install", plan_id, plan)
        networks.append(network)
    batch, loop = networks
    assert batch.frames and batch.frames == loop.frames


def test_installing_a_groups_id_again_keeps_its_other_members_covered():
    """``install_plans({a, b})`` then ``install_plan(a)`` replaces the
    devices' context ``a``, so ``b`` is installed again with it; a later
    ``install_plan(b)`` moves ``b`` to its own context, and forensics
    follow the last install.  ``a``'s destination drops part of its
    prefix, so ``b`` holds only while something still verifies it."""
    workload = inet2(2)
    plans = dict(workload.plans)
    first, second = list(plans)[:2]
    _, mutate = blackhole(workload, first)
    mutate()
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory, flight=True,
        flight_capacity=1 << 16,
    )
    alone = SimulatedNetwork(workload.topology, workload.fibs, workload.factory)
    alone.install_plan(second, plans[second])
    expected = read_out(alone, [second])
    assert expected[second][0]

    network.install_plans({first: plans[first], second: plans[second]})
    assert install_group(merge_dumps(network.flight_dump()), second) == first
    for plan_id, plan in ((first, plans[first]), (second, plans[second])):
        network.install_plan(plan_id, plan)
        assert not network.holds(first)
        assert read_out(network, [second]) == expected
    assert install_group(merge_dumps(network.flight_dump()), second) == second


# -- what a rule update costs the CIB layer ------------------------------------


class CibWork:
    """BDD operations issued from ``repro/dvm/cib.py`` plus CIB entries
    visited (every slot or hole a :class:`~repro.dvm.cib.Entries` tries
    for a region, or the one slot of an unindexed table), counted while
    :attr:`on`."""

    def __init__(self, monkeypatch):
        self.on = False
        self.operations = 0
        self.visits = 0
        for name in ("__and__", "__or__", "__sub__"):
            counted = self._counting(getattr(Predicate, name))
            monkeypatch.setattr(Predicate, name, counted)
        candidates, cut = PredicateIndex.candidates, cib.Entries.cut

        def counted_candidates(index, query):
            found = candidates(index, query)
            if self._from_cib():
                self.visits += len(found)
            return found

        def counted_cut(entries, region):
            if self.on and entries._index is None:
                self.visits += len(entries)  # its one slot, read directly
            return cut(entries, region)

        monkeypatch.setattr(PredicateIndex, "candidates", counted_candidates)
        monkeypatch.setattr(cib.Entries, "cut", counted_cut)

    def _from_cib(self):
        """On, and called from ``repro/dvm/cib.py`` (two frames up: the
        caller of the counting wrapper)."""
        return self.on and sys._getframe(2).f_code.co_filename.endswith(
            "dvm/cib.py"
        )

    def _counting(self, operation):
        def counted(left, right):
            if self._from_cib():
                self.operations += 1
            return operation(left, right)

        return counted

    @property
    def total(self):
        return self.operations + self.visits


def test_a_rule_update_costs_a_group_what_its_members_tables_would(monkeypatch):
    """300 churn updates on INet2 at 16 prefixes per device (9 groups of
    16): with the plans grouped, CIB work stays within 1.25x of one plan
    per install (0.91x).  Tables that try every entry of the group's
    partition do 1.56x here, and the tables before groups existed, in
    BDD operations alone, 1.58x."""
    work = CibWork(monkeypatch)
    totals = []
    for grouped in (True, False):
        workload = inet2(16, seed=11)
        network = SyncNetwork(workload)
        if grouped:
            network.inject_plans(dict(workload.plans))
        else:
            for plan_id, plan in workload.plans:
                network.inject_plans({plan_id: plan})
        start = work.total
        work.on = True
        for device, mutate in churn(workload, 300, seed=23):
            network.fib_update(device, mutate)
        work.on = False
        totals.append(work.total - start)
    grouped, single = totals
    assert single > 1000
    assert grouped <= 1.25 * single, (grouped, single)


# -- forensics --------------------------------------------------------------------


def test_forensics_find_a_members_verdict_in_its_group(tmp_path, capsys):
    """INet2 at 2 prefixes per device: 9 groups of two.  An update breaks
    one destination's second prefix; its events carry the group's id."""
    workload = inet2(2)
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory, flight=True,
        flight_capacity=1 << 16,
    )
    network.install_plans(dict(workload.plans))
    first, second = [p for p, _ in workload.plans][:2]
    destination = workload.topology.devices_with_prefixes()[0]
    cidr = workload.topology.external_prefixes(destination)[1]
    assert second.endswith(cidr)
    network.fib_update(
        destination,
        lambda: workload.fibs[destination].insert(
            PRIORITY_ERROR, workload.factory.dst_prefix(cidr), Drop(), label="bh"
        ),
    )
    assert network.holds(first) and not network.holds(second)

    merged = merge_dumps(network.flight_dump())
    installs = [
        event["members"]
        for event in merged["events"]
        if event["etype"] == "admin" and event["kind"] == "install"
    ]
    assert [first, second] in installs
    assert install_group(merged, second) == first
    target = find_verdict(merged, plan=second)
    assert target is not None and target["plan"] == first
    assert target["holds"] is False
    assert find_verdict(merged, plan=first) == target

    path = tmp_path / "flight.json"
    path.write_text(json.dumps(network.flight_dump(), default=str))
    assert main(["explain", str(path), "--plan", second]) == 0
    out = capsys.readouterr().out
    assert f"explaining: plan {second} (installed in group {first})" in out
    assert "holds=False" in out
