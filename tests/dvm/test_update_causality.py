"""An UPDATE is recounted where causality says it is read -- which
decides how much work a frame costs, never what the network computes.

One seeded stream is driven through two worlds built from the same
inputs: the verifier as shipped, and a reference whose ``_on_update`` is
the handler it replaced (withdraw, insert, recount the whole affected
region; kept here).  After every step the frames each device was sent
(as multisets; an UPDATE's withdrawn and results as sets), CIBIn, LocCIB
and CIBOut as functions, verdicts and violations must be equal.  Five
hand-made mutants of the skip each make the same comparison fail.
"""

import ipaddress
from collections import Counter, defaultdict

import pytest

from repro.counting.counts import CountSet
from repro.dvm.cib import CibIn
from repro.dvm.messages import (
    OpenMessage,
    SubscribeMessage,
    UpdateMessage,
    encode_message,
)
from repro.dvm.verifier import OnDeviceVerifier, _in_plan
from tests.dvm.test_interest_index import World, churn_stream


class Dispatched(OnDeviceVerifier):
    """``on_message`` reaches a subclass's ``_on_update`` (the handler
    table of the base class binds the base function)."""

    _HANDLERS = {
        **OnDeviceVerifier._HANDLERS,
        UpdateMessage: _in_plan(
            lambda self, context, message: self._on_update(context, message)
        ),
    }


class RecountAll(Dispatched):
    """Reference: every UPDATE recounts its whole affected region."""

    def _on_update(self, context, message):
        state = context.nodes.get(message.up_node)
        if state is None:
            return []
        cib = state.cib_in.get(message.down_node)
        if cib is None:
            return []
        cib.withdraw(message.withdrawn)
        affected = None
        for predicate in message.withdrawn:
            affected = predicate if affected is None else affected | predicate
        for predicate, counts in message.results:
            cib.insert(predicate, counts)
            affected = predicate if affected is None else affected | predicate
        if affected is None:
            return []
        region = self._affected_region(
            state, affected, self._rewrite_images(affected)
        )
        return self._recompute(context, state, region)


class Absorbing(Dispatched):
    """The shipped handler, held to the receiver rule of
    ``docs/PROTOCOL.md``: no recount for an UPDATE that leaves CIBIn
    unchanged or that no LocCIB entry's causality reads."""

    recounted = 0

    def _recompute(self, context, state, region):
        self.recounted += 1
        return super()._recompute(context, state, region)

    def _on_update(self, context, message):
        state = context.nodes.get(message.up_node)
        cib = state.cib_in.get(message.down_node) if state else None
        if cib is None:
            return super()._on_update(context, message)
        zero = CountSet.zero(context.plan.dim)
        before = as_function(known(cib), zero)
        read = any(message.down_node in e.causality for e in state.loc.entries)
        mark = self.recounted
        outgoing = super()._on_update(context, message)
        if before == as_function(known(cib), zero) or not read:
            assert self.recounted == mark, (self.device, message)
        return outgoing


def known(cib):
    return [(entry.predicate, entry.counts) for entry in cib.entries]


def as_function(parts, zero=None):
    """``{counts: wire form of where}``, the ``zero`` class left out."""
    merged = {}
    for predicate, counts in parts:
        if counts != zero:
            held = merged.get(counts)
            merged[counts] = predicate if held is None else held | predicate
    return {counts: region.to_bytes() for counts, region in merged.items()}


def normal(message):
    if not isinstance(message, UpdateMessage):
        return encode_message(message)
    return (
        message.plan_id,
        message.up_node,
        message.down_node,
        frozenset(p.to_bytes() for p in message.withdrawn),
        frozenset((p.to_bytes(), counts) for p, counts in message.results),
    )


class Scene(World):
    """``World`` plus link events, session loss, and a factory-neutral
    record of what every device was sent."""

    def __init__(self, verifier_class, seed):
        self.failed = set()
        self.sent = defaultdict(Counter)  # receiver -> multiset of frames
        self.updates = self.opens = 0
        super().__init__(verifier_class, seed)

    def _emit(self, sender, outgoing):
        for receiver, message in outgoing:
            if frozenset((sender, receiver)) in self.failed:
                continue  # the link is down: the frame is lost
            self.sent[receiver][normal(message)] += 1
            self.updates += isinstance(message, UpdateMessage)
            self.opens += isinstance(message, OpenMessage)
            self.subscribes += isinstance(message, SubscribeMessage)
            self.queue.append((receiver, message))
        while self.queue:
            receiver, message = self.queue.popleft()
            self._emit(receiver, self.verifiers[receiver].on_message(message))

    def apply(self, op):
        kind = op[0]
        if kind in ("fail", "recover"):
            _, a, b = op
            (self.failed.add if kind == "fail" else self.failed.discard)(
                frozenset((a, b))
            )
            for device in (a, b):
                self._emit(
                    device,
                    self.verifiers[device].on_link_event((a, b), kind == "recover"),
                )
        elif kind == "withdrawn_only":  # no honest sender makes this frame
            _, sender, receiver, plan_id, up_node, down_node = op
            space = self.plans[plan_id].invariant.packet_space
            silence = UpdateMessage(
                plan_id=plan_id, up_node=up_node, down_node=down_node,
                withdrawn=(space,), results=(),
            )
            self._emit(sender, [(receiver, silence)])
        elif kind == "session_lost":
            _, a, b = op
            self._emit(a, self.verifiers[a].on_peer_down(b))
            self._emit(b, self.verifiers[b].on_peer_down(a))
        elif kind == "session_back":  # DeviceHost.on_session_established
            _, a, b = op
            for device, peer in ((a, b), (b, a)):
                self._emit(
                    device,
                    [
                        (peer, OpenMessage(plan_id=plan_id, device=device))
                        for plan_id in self.verifiers[device]._contexts
                    ],
                )
        else:
            super().apply(op)

    def state(self):
        """Everything a frame or a verdict is computed from, as functions."""
        nodes, verdicts = {}, defaultdict(list)
        for device, verifier in self.verifiers.items():
            for plan_id, context in verifier._contexts.items():
                zero = CountSet.zero(context.plan.dim)
                for node_id, state in context.nodes.items():
                    nodes[device, plan_id, node_id] = (
                        {
                            child: as_function(known(cib), zero)
                            for child, cib in state.cib_in.items()
                        },
                        as_function(known(state.loc)),
                        as_function(known(state.out)),
                    )
                for v in verifier.root_verdicts(plan_id):
                    verdicts[device, plan_id, v.ingress, v.holds].append(
                        (v.predicate, v.counts)
                    )
        return (
            nodes,
            {key: as_function(parts) for key, parts in verdicts.items()},
            self.snapshot()[2],
        )


def withdrawn_only(world):
    """A child whose count some parent reads as non-zero withdraws it
    without a replacement; then the parent's device re-OPENs."""
    for device, verifier in world.verifiers.items():
        for plan_id, context in verifier._contexts.items():
            zero = CountSet.zero(context.plan.dim)
            for state in context.bottom_up:
                for entry in state.loc.entries:
                    for child_id, counts in entry.causality.items():
                        if counts == zero:
                            continue
                        (peer,) = (
                            dev
                            for (node_id, dev, _) in state.task.children
                            if node_id == child_id
                        )
                        return [
                            ("withdrawn_only", peer, device, plan_id,
                             state.task.node_id, child_id),
                            ("session_back", device, peer),
                        ]
    raise AssertionError("no LocCIB entry reads a non-zero count")


def through_a_rewrite(world):
    """A neighbour of a destination rewrites part of one of its prefixes
    onto the other: the destination's count of the image (1: it delivers)
    reaches the neighbour's entry only through ``rewrite.inverse``.  Then
    the destination forwards the image away (1 -> 0), and stops."""
    topology = world.topology
    destination = topology.devices_with_prefixes()[0]
    ours, image = topology.external_prefixes(destination)[:2]
    neighbour = topology.neighbors(destination)[0]
    match = next(ipaddress.ip_network(ours).subnets(new_prefix=26))
    address = int(ipaddress.ip_network(image).network_address) + 77
    moved = ipaddress.ip_network((address, 26), strict=False)
    return [
        ("insert", neighbour, str(match), destination, address),
        ("insert", destination, str(moved), neighbour, 0),
        ("remove", -1),
    ]


def stream(world):
    """Burst install (done by the constructor), then 80 rule updates with
    uphill errors, a rewriting ``Forward`` whose SUBSCRIBE grows an
    interest, uninstall / re-install (all from ``churn_stream``), two
    links failing and recovering, a session lost and re-OPENed, a
    withdrawn-only frame, and counts that change behind a rewrite."""
    ops = churn_stream(world, count=80, seed=17)
    links = [link.endpoints for link in world.topology.links]
    one, two, three = links[1], links[len(links) // 2], links[-2]
    for position, op in (
        (70, ("session_back", *three)),
        (62, ("session_lost", *three)),
        (55, ("recover", *two)),
        (48, ("recover", *one)),
        (44, ("fail", *two)),
        (38, ("fail", *one)),
    ):
        ops.insert(position, op)
    return withdrawn_only(world) + ops + through_a_rewrite(world)


def drive(verifier_class):
    """Raises ``AssertionError`` at the first step where a world running
    ``verifier_class`` and the reference world differ."""
    shipped = Scene(verifier_class, seed=5)
    reference = Scene(RecountAll, seed=5)
    assert shipped.sent == reference.sent, "burst"
    assert shipped.state() == reference.state(), "burst"
    for op in stream(shipped):
        for world in (shipped, reference):
            world.sent.clear()
            world.apply(op)
        assert shipped.sent == reference.sent, op
        assert shipped.state() == reference.state(), op
    return shipped, reference


def test_the_skip_and_the_full_recount_agree_on_every_step():
    shipped, reference = drive(Absorbing)
    # The stream did exercise what it is there for ...
    assert shipped.subscribes >= 1
    verdicts = shipped.state()[1]
    assert {holds for (_, _, _, holds) in verdicts} == {True, False}
    # ... and the skip did skip: the same frames from fewer recounts.
    assert shipped.updates == reference.updates > 1000
    assert len(reference.recounts) - len(shipped.recounts) > 1000


def withdrawn_only_ignored(monkeypatch):
    shipped = CibIn.apply

    def apply(self, withdrawn, results, default):
        changed = shipped(self, withdrawn, results, default)
        return changed if results else None

    monkeypatch.setattr(CibIn, "apply", apply)
    return Absorbing


def unknown_is_not_zero(monkeypatch):
    shipped = CibIn.apply
    monkeypatch.setattr(
        CibIn,
        "apply",
        lambda self, withdrawn, results, default: shipped(
            self, withdrawn, results, None
        ),
    )
    return Absorbing


class RewriteIgnored(Absorbing):
    def _read_region(self, state, child_id, changed):
        region = None
        for entry in state.loc.entries:
            if child_id in entry.causality:
                part = entry.predicate & changed
                if not part.is_empty:
                    region = part if region is None else region | part
        return region


class WrongChild(Absorbing):
    def _read_region(self, state, child_id, changed):
        return super()._read_region(state, state.task.children[0][0], changed)


class StaleAfterPeerDown(Absorbing):
    """Forgets the lost peer's counts but keeps the LocCIB rows (and
    their causality) computed from them, trusting the refresh to fix it."""

    def on_peer_down(self, peer):
        for context in self._contexts.values():
            for state in context.nodes.values():
                for child_id, child_dev, _ in state.task.children:
                    if child_dev == peer:
                        state.cib_in[child_id] = CibIn()
        return []


@pytest.mark.parametrize(
    "mutant",
    [
        withdrawn_only_ignored,
        unknown_is_not_zero,
        lambda monkeypatch: RewriteIgnored,
        lambda monkeypatch: WrongChild,
        lambda monkeypatch: StaleAfterPeerDown,
    ],
    ids=[
        "withdrawn-only frames ignored",
        "unknown is not zero",
        "rewrite.inverse ignored",
        "causality of the wrong child",
        "stale causality after on_peer_down",
    ],
)
def test_each_mutation_of_the_skip_is_caught(mutant, monkeypatch):
    with pytest.raises(AssertionError):
        drive(mutant(monkeypatch))
