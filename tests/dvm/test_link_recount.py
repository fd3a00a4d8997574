"""A link event recounts only the node states it can change -- which
decides how much work an advertisement costs, never what the network
computes.

One stream of link failures and recoveries is driven through two worlds
built from the same inputs: the verifier as shipped, and a reference
whose ``_apply_failures`` is the handler it replaced (on every
advertisement, every node state of every plan recounts its whole
interest; kept here).  The plans are INet2's concrete-filter
reachability plans, a ``local``-mode plan, and one plan with two planned
fault scenes.  After every step the frames each device was sent (as
multisets), CIBIn, LocCIB and CIBOut as functions, verdicts, violations
and unplanned failure sets must be equal.  Three hand-made mutants of
the skip each make the comparison fail.
"""

import dataclasses

import pytest

from repro.bench.workloads import reachability_invariant
from repro.dvm.verifier import OnDeviceVerifier
from repro.planner import plan_invariant
from repro.topology.graph import FaultScene
from tests.dvm.test_update_causality import Scene


class RecountAll(OnDeviceVerifier):
    """Reference: every advertisement recounts everything."""

    def _apply_failures(self):
        failed = self.linkstate.failed_links
        outgoing = []
        for context in self._contexts.values():
            new_index = None
            for index, scene in enumerate(context.plan.scenes):
                if scene.failed == failed:
                    new_index = index
                    break
            if new_index is None and not failed:
                new_index = 0
            if new_index is None and len(context.plan.scenes) == 1:
                new_index = 0
            if new_index is None:
                if context.unplanned != failed:
                    context.unplanned = failed
                    self.flight.record(
                        "unplanned",
                        plan=context.plan_id,
                        links=sorted(f"{a}-{b}" for a, b in failed),
                    )
                continue
            context.unplanned = None
            context.scene_index = new_index
            if context.plan.mode == "local":
                self._run_local_checks(context)
                continue
            for state in context.bottom_up:
                outgoing.extend(self._recompute(context, state, state.interest))
        return outgoing


def planned_links(topology):
    """The two links of the faulted plan's scenes: the destination's
    first link, and a link of the device behind it."""
    destination = topology.devices_with_prefixes()[0]
    neighbour = topology.neighbors(destination)[0]
    beyond = next(n for n in topology.neighbors(neighbour) if n != destination)
    return destination, (destination, neighbour), (neighbour, beyond)


class Links(Scene):
    """``Scene`` plus an endpoint advertising a link's state once more."""

    def apply(self, op):
        if op[0] != "readvertise":
            return super().apply(op)
        _, a, b = op
        up = frozenset((a, b)) not in self.failed
        self._emit(a, self.verifiers[a].on_link_event((a, b), up))


def build(verifier_class):
    """``Scene``'s INet2 plans plus ``faulted``, planned for the scenes
    {first} and {first, second} of ``planned_links``."""
    world = Links(verifier_class, seed=5)
    topology = world.topology
    destination, first, second = planned_links(topology)
    invariant = reachability_invariant(
        world.factory,
        topology,
        destination,
        topology.external_prefixes(destination)[0],
        [d for d in topology.devices if d != destination],
    )
    world.plans["faulted"] = plan_invariant(
        dataclasses.replace(
            invariant,
            fault_scenes=(FaultScene([first]), FaultScene([first, second])),
            name="faulted",
        ),
        topology,
    )
    assert len(world.plans["faulted"].scenes) == 3
    world.install("faulted")
    return world


def stream(world):
    """Link events as plain data, so both worlds apply the same ones."""
    _, first, second = planned_links(world.topology)
    others = [
        link.endpoints
        for link in world.topology.links
        if {link.endpoints, link.endpoints[::-1]}.isdisjoint({first, second})
    ]
    one, two, x, y, z = others[0], others[len(others) // 2], *others[-3:]
    counting = next(p for p in world.plans if p not in ("rcdc", "faulted"))
    return [
        # one link failing and recovering
        ("fail", *one), ("recover", *one),
        # two overlapping failures
        ("fail", *one), ("fail", *two), ("recover", *one), ("recover", *two),
        # the faulted plan's planned scenes: 0 -> 1 -> 2 -> 1 -> 0
        ("fail", *first), ("fail", *second),
        ("recover", *second), ("recover", *first),
        # an unplanned 3-link scene, and the way back from it
        ("fail", *x), ("fail", *y), ("fail", *z),
        ("recover", *y), ("recover", *x), ("recover", *z),
        # from a planned scene to an unplanned one and back
        ("fail", *first), ("fail", *x), ("recover", *x), ("recover", *first),
        # a plan installed while a link is down counts in scene 0 until the
        # next advertisement, even one that changes no link
        ("fail", *first), ("install", "faulted"), ("readvertise", *first),
        ("fail", *one), ("install", counting), ("fail", *two),
        ("recover", *two), ("recover", *one), ("recover", *first),
    ]


def observed(world):
    nodes, verdicts, violations = world.state()
    unplanned = {
        (device, plan_id): verifier.unplanned_links(plan_id)
        for device, verifier in world.verifiers.items()
        for plan_id in verifier.plan_ids
    }
    return nodes, verdicts, sorted(violations), unplanned


def drive(verifier_class):
    """Raises ``AssertionError`` at the first step where a world running
    ``verifier_class`` and the reference world differ.  Returns both
    worlds, the faulted plan's (scene index, unplanned) states seen, and
    the mean recounts per link event in each world."""
    shipped, reference = build(verifier_class), build(RecountAll)
    assert shipped.sent == reference.sent, "install"
    assert observed(shipped) == observed(reference), "install"
    recounts = [0, 0]
    events = 0
    scenes = set()
    for op in stream(shipped):
        for side, world in enumerate((shipped, reference)):
            world.sent.clear()
            mark = len(world.recounts)
            world.apply(op)
            if op[0] != "install":
                recounts[side] += len(world.recounts) - mark
        events += op[0] != "install"
        assert shipped.sent == reference.sent, op
        assert observed(shipped) == observed(reference), op
        scenes.update(
            (context.scene_index, context.unplanned is not None)
            for verifier in shipped.verifiers.values()
            for plan_id, context in verifier._contexts.items()
            if plan_id == "faulted"
        )
    return shipped, reference, scenes, [count / events for count in recounts]


def test_a_link_event_recounts_what_it_touches_and_nothing_else():
    shipped, reference, scenes, per_event = drive(OnDeviceVerifier)
    # The stream did exercise what it is there for: the faulted plan's
    # scenes and an unplanned one, and verdicts both ways.
    assert {(1, False), (2, False), (0, True), (1, True)} <= scenes
    assert shipped.updates == reference.updates > 100
    assert {holds for (*_, holds) in observed(shipped)[1]} == {True, False}
    # ... and the skip did skip: the same frames from far fewer recounts.
    shipped_per_event, reference_per_event = per_event
    assert reference_per_event >= 10 * shipped_per_event, per_event


class OneDirection(OnDeviceVerifier):
    """Only the first endpoint of a link recounts over it."""

    def _touched(self, context, changed, old_index, new_index):
        mine = frozenset(link for link in changed if link[0] == self.device)
        return super()._touched(context, mine, old_index, new_index)


class RecoveryIgnored(OnDeviceVerifier):
    """A recovered link recounts nothing (unless the scene moves)."""

    def _touched(self, context, changed, old_index, new_index):
        down = frozenset(link for link in changed if self.linkstate.is_failed(link))
        return super()._touched(context, down, old_index, new_index)


class InstalledAsDerived(OnDeviceVerifier):
    """A plan installed while a link is down takes the failure set as
    already derived, though it counted in scene 0."""

    def install_plan(self, plan_id, plan):
        outgoing = super().install_plan(plan_id, plan)
        if plan_id in self._contexts:
            self._contexts[plan_id].failed = self.linkstate.failed_links
        return outgoing


@pytest.mark.parametrize(
    "mutant",
    [OneDirection, RecoveryIgnored, InstalledAsDerived],
    ids=[
        "one endpoint's direction only",
        "no recount on recovery",
        "install taken as derived",
    ],
)
def test_each_mutation_of_the_skip_is_caught(mutant):
    with pytest.raises(AssertionError):
        drive(mutant)
