"""The device core without a backend: bare ``DeviceAgent``s, a list as
the network -- no event queue, no sockets.  Every ``EVENTS`` row plus
``frame`` (and its queued form, ``arrived`` / ``handle``) and ``stamp``
is driven here, and the flight chains they leave are checked link by
link.
"""

import re
from pathlib import Path

import pytest

from repro.dataplane.actions import Drop
from repro.dataplane.routes import PRIORITY_ERROR, RouteConfig, install_routes
from repro.dvm.agent import EVENTS, DeviceAgent
from repro.obs.flight import FlightRecorder, causal_chain, merge_dumps
from repro.planner import plan_invariant
from repro.spec import library
from repro.topology.generators import paper_example

OBSERVABILITY_MD = (
    Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
)
ROOTS = ("admin", "peer_down")


class Wire:
    """One agent per device; frames in flight sit in a list."""

    def __init__(self, factory, enabled=True, queued=False):
        #: Deliver like the runtime: every frame in flight ``arrived``
        #: before the first is handled, not ``frame`` one at a time.
        self.queued = queued
        self.topology = paper_example()
        self.fibs = install_routes(
            self.topology, factory, RouteConfig(ecmp="any")
        )
        self.packets = factory.dst_prefix("10.0.0.0/23")
        self.plan = plan_invariant(
            library.bounded_reachability(self.packets, "S", "D", 2),
            self.topology,
        )
        self.agents = {
            device: DeviceAgent(
                device,
                factory,
                self.fibs[device],
                self.topology.neighbors(device),
                FlightRecorder(device, enabled=enabled),
            )
            for device in self.topology.devices
        }
        self.in_flight = []
        self.stamps = []  # (source, destination, clock) of every send

    def run(self, device, step):
        for destination, message in step():
            clock = self.agents[device].stamp(destination, message)
            self.stamps.append((device, destination, clock))
            self.in_flight.append((device, destination, message, clock))

    def handle(self, source, destination, message, clock):
        """The step of an ``arrived`` frame is caused by *its* arrival."""
        flight = self.agents[destination].flight
        first = flight.next_seq
        self.run(destination, self.agents[destination].handle(message))
        events = flight.dump()["events"]
        for event in events:
            if event["seq"] >= first and "cause" in event:
                arrival = events[event["cause"]]
                assert (
                    arrival["etype"], arrival["peer"], arrival["clock"]
                ) == ("frame_rx", source, clock)

    def inject(self, devices, event, *args, **kwargs):
        steps = [
            (device, self.agents[device].event(event, *args, **kwargs))
            for device in devices
        ]
        for device, step in steps:
            self.run(device, step)
        while self.in_flight and not self.queued:
            source, destination, message, clock = self.in_flight.pop(0)
            self.run(
                destination,
                self.agents[destination].frame(source, message, clock),
            )
        while self.in_flight:
            batch, self.in_flight = self.in_flight, []
            for source, destination, message, clock in batch:
                self.agents[destination].arrived(source, message, clock)
            for frame in batch:
                self.handle(*frame)

    def blackhole(self, device):
        self.fibs[device].insert(
            PRIORITY_ERROR, self.packets, Drop(), label="bh"
        )

    def events(self):
        return merge_dumps(
            {d: a.flight.dump() for d, a in self.agents.items()}
        )["events"]

    # One scenario per EVENTS row; each returns the devices injected.

    def install(self):
        self.inject(self.plan.devices(), "install", "p", self.plan)
        return self.plan.devices()

    def fib_update(self):
        self.blackhole("W")
        self.inject(("W",), "fib_update")
        return ("W",)

    def link(self):
        self.inject(("B", "D"), "link", ("B", "D"), False)
        return ("B", "D")

    def peer_down(self):
        edge = self.agents["B"].flight.record(
            "session", event="conn_lost", state="RECONNECTING", peer="D"
        )
        self.inject(("B",), "peer_down", "D", cause=edge if edge >= 0 else None)
        return ("B",)


def test_the_scenarios_cover_every_row():
    assert all(callable(getattr(Wire, name)) for name in EVENTS)


@pytest.mark.parametrize("queued", [False, True], ids=["frame", "arrived-handle"])
@pytest.mark.parametrize("name", list(EVENTS))
def test_row_leaves_complete_flight_chains(name, queued, dst_factory):
    wire = Wire(dst_factory, queued=queued)
    if name != "install":
        wire.install()
    before = {(e["device"], e["seq"]) for e in wire.events()}
    injected = getattr(wire, name)()
    events = wire.events()
    by_key = {(e["device"], e["seq"]): e for e in events}
    fresh = [e for e in events if (e["device"], e["seq"]) not in before]

    # The event itself: recorded once per injected device, as the row says.
    row = EVENTS[name]
    roots = [e for e in fresh if e["etype"] in ROOTS]
    assert sorted(e["device"] for e in roots) == sorted(injected)
    for root in roots:
        if row.kind:
            assert (root["etype"], root["kind"]) == ("admin", row.kind)
        else:
            assert root["etype"] == name

    # Everything a step recorded, and every frame it sent, names its cause,
    # and the cause is the event or the received frame behind the step.
    effects = [
        e for e in fresh if e["etype"] in ("frame_tx", "cib_delta", "verdict")
    ]
    for effect in effects:
        assert "cause" in effect, effect
        cause = by_key[(effect["device"], effect["cause"])]
        assert cause["etype"] in ROOTS + ("frame_rx",), (effect, cause)
    sent_by_root = [
        e
        for e in effects
        if e["etype"] == "frame_tx"
        and by_key[(e["device"], e["cause"])]["etype"] in ROOTS
    ]
    assert sent_by_root, f"{name}: no admin -> frame_tx link"
    counted = [
        e
        for e in effects
        if e["etype"] in ("cib_delta", "verdict")
        and by_key[(e["device"], e["cause"])]["etype"] == "frame_rx"
    ]
    assert counted, f"{name}: no frame_rx -> cib/verdict link"

    # Every arrival joins the send it came from, so any effect walks back
    # to a root: the chain is never cut short.
    sends = {
        (e["device"], e["peer"], e["clock"])
        for e in events
        if e["etype"] == "frame_tx"
    }
    for arrival in (e for e in fresh if e["etype"] == "frame_rx"):
        assert (arrival["peer"], arrival["device"], arrival["clock"]) in sends
    for effect in effects:
        chain = causal_chain(events, target=effect)
        assert chain[0]["etype"] in ROOTS + ("session",), chain[0]


def test_peer_down_chains_to_the_session_edge_and_freezes_the_ring(dst_factory):
    wire = Wire(dst_factory)
    wire.install()
    wire.peer_down()
    flight = wire.agents["B"].flight
    down = [e for e in flight.dump()["events"] if e["etype"] == "peer_down"]
    assert [e["peer"] for e in down] == ["D"]
    edge = flight.dump()["events"][down[0]["cause"]]
    assert (edge["etype"], edge["event"]) == ("session", "conn_lost")
    assert [snap["reason"] for snap in flight.snapshots] == ["peer_down"]


def test_refresh_frames_have_no_cause(dst_factory):
    wire = Wire(dst_factory)
    wire.install()
    agent = wire.agents["B"]
    opens = agent.refresh("D")
    assert [m.plan_id for _, m in opens] == ["p"]
    for destination, message in opens:
        agent.stamp(destination, message)
    sent = agent.flight.dump()["events"][-1]
    assert sent["etype"] == "frame_tx" and "cause" not in sent


def test_disabled_recorder_records_nothing_and_stamps_the_same_clocks(
    dst_factory,
):
    def drive(enabled):
        wire = Wire(dst_factory, enabled=enabled)
        for name in EVENTS:
            getattr(wire, name)()
        return wire

    recording, silent = drive(True), drive(False)
    assert recording.stamps and recording.stamps == silent.stamps
    for agent in silent.agents.values():
        dump = agent.flight.dump()
        assert dump["next_seq"] == 0 and not dump["events"]
        assert not agent.flight.snapshots
    assert any(a.flight.next_seq for a in recording.agents.values())


def test_observability_md_lists_the_event_table():
    documented = {}
    for line in OBSERVABILITY_MD.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 4 and cells[0].strip("`") in EVENTS:
            event, method, span, kind = (
                "".join(re.findall(r"`(\w+)`", cell)) for cell in cells
            )
            documented[event] = (method, span, kind)
    assert documented == {
        name: (row.method, row.span, row.kind) for name, row in EVENTS.items()
    }
