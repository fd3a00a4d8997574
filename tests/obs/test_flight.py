"""Flight recorder: ring semantics, truncation accounting, merge +
causal-chain reconstruction, and concurrent append-while-dump safety.

The recorder is the evidence layer behind ``python -m repro explain``;
these tests pin the properties that forensics depend on: loss is never
silent (``dropped``/``missing``/``truncated``), a dump racing appends
never emits a torn event, and the chain walk follows ``cause`` edges
on-device and Lamport-matched tx/rx pairs across devices.
"""

import threading

from repro.obs.flight import (
    NULL_RECORDER,
    FlightRecorder,
    LamportClock,
    causal_chain,
    chain_signature,
    find_verdict,
    merge_dumps,
)


# -- Lamport clock -----------------------------------------------------------


def test_clock_ticks_strictly_increase():
    clock = LamportClock()
    values = [clock.tick() for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]


def test_clock_observe_jumps_past_remote():
    clock = LamportClock(3)
    assert clock.observe(10) == 11  # max(3, 10) + 1
    assert clock.observe(2) == 12  # stale remote still advances locally


# -- ring buffer + truncation accounting -------------------------------------


def test_record_and_dump_roundtrip():
    recorder = FlightRecorder("r1", capacity=8)
    recorder.clock.tick()
    seq = recorder.record("admin", kind="install")
    dump = recorder.dump()
    assert seq == 0
    assert dump["device"] == "r1"
    assert dump["dropped"] == 0
    assert dump["missing"] == 0
    assert dump["truncated"] is False
    (event,) = dump["events"]
    assert event["etype"] == "admin"
    assert event["kind"] == "install"
    assert event["lamport"] == 1


def test_wraparound_evicts_oldest_and_counts_dropped():
    recorder = FlightRecorder("r1", capacity=8)
    for index in range(20):
        recorder.record("admin", index=index)
    dump = recorder.dump()
    assert [event["index"] for event in dump["events"]] == list(range(12, 20))
    assert dump["dropped"] == 12
    assert dump["truncated"] is True
    assert dump["next_seq"] == 20


def test_dump_limit_keeps_the_tail():
    recorder = FlightRecorder("r1", capacity=16)
    for index in range(10):
        recorder.record("admin", index=index)
    dump = recorder.dump(limit=3)
    assert [event["index"] for event in dump["events"]] == [7, 8, 9]


def test_torn_slot_is_counted_missing_not_emitted():
    recorder = FlightRecorder("r1", capacity=8)
    for index in range(8):
        recorder.record("admin", index=index)
    # Simulate an append racing the dump: slot 2 now holds a newer event
    # whose seq no longer matches the sequence the dump expects.
    recorder._buf[2] = {"seq": 999, "device": "r1", "etype": "admin"}
    dump = recorder.dump()
    assert dump["missing"] == 1
    assert dump["truncated"] is True
    assert all(event["seq"] != 2 for event in dump["events"])


def test_concurrent_append_while_dump_is_consistent():
    recorder = FlightRecorder("r1", capacity=64)
    stop = threading.Event()

    def writer():
        index = 0
        while not stop.is_set():
            recorder.record("admin", index=index)
            index += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(200):
            dump = recorder.dump()
            events = dump["events"]
            # Never a torn event: seqs strictly increase and every
            # event's payload matches its seq.
            seqs = [event["seq"] for event in events]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            for event in events:
                assert event["index"] == event["seq"]
            # Loss, if any, is declared.
            accounted = len(events) + dump["missing"]
            assert accounted == dump["next_seq"] - dump["dropped"]
    finally:
        stop.set()
        thread.join()


def test_disabled_recorder_records_nothing_but_clock_works():
    recorder = FlightRecorder("r1", capacity=8, enabled=False)
    assert recorder.record("admin") == -1
    assert recorder.snapshot("anomaly") is None
    assert recorder.dump()["events"] == []
    assert recorder.clock.tick() == 1  # stamping stays live when disabled
    assert NULL_RECORDER.record("admin") == -1


def test_set_cause_accepts_disabled_sentinel():
    recorder = FlightRecorder("r1", capacity=8)
    recorder.set_cause(-1)  # the seq a disabled recorder returns
    assert recorder.record("admin") == 0
    assert "cause" not in recorder.dump()["events"][0]
    recorder.set_cause(0)
    recorder.record("cib_delta")
    recorder.clear_cause()
    recorder.record("verdict")
    events = recorder.dump()["events"]
    assert events[1]["cause"] == 0
    assert "cause" not in events[2]


def test_snapshots_are_bounded_and_survive_wrap():
    recorder = FlightRecorder("r1", capacity=4, max_snapshots=2)
    recorder.record("admin", index=0)
    recorder.snapshot("first")
    for index in range(1, 20):
        recorder.record("admin", index=index)
    recorder.snapshot("second")
    recorder.snapshot("third")
    reasons = [snap["reason"] for snap in recorder.snapshots]
    assert reasons == ["second", "third"]  # oldest evicted, bound holds
    # The early snapshot would have preserved evidence the ring lost;
    # the surviving ones carry the tail at their capture time.
    assert recorder.snapshots[-1]["events"]
    dump = recorder.dump()
    assert dump["snapshots"] == recorder.snapshots


# -- merging -----------------------------------------------------------------


def _dump(device, events):
    return {
        "device": device,
        "events": events,
        "dropped": 0,
        "missing": 0,
        "truncated": False,
        "snapshots": [],
    }


def test_merge_orders_by_lamport_then_device_then_seq():
    a = _dump(
        "a",
        [
            {"seq": 0, "device": "a", "etype": "admin", "lamport": 5},
            {"seq": 1, "device": "a", "etype": "admin", "lamport": 9},
        ],
    )
    b = _dump(
        "b",
        [{"seq": 0, "device": "b", "etype": "admin", "lamport": 7}],
    )
    merged = merge_dumps(a, b)
    assert [e["lamport"] for e in merged["events"]] == [5, 7, 9]
    assert merged["devices"] == ["a", "b"]


def test_merge_accepts_nested_shapes_and_dedupes():
    event = {"seq": 0, "device": "a", "etype": "admin", "lamport": 1}
    single = _dump("a", [event])
    fleet_shape = {"a": single}
    merged = merge_dumps([single, fleet_shape], {"again": {"a": single}})
    assert len(merged["events"]) == 1  # (device, seq) dedupe


def test_merge_aggregates_truncation():
    a = _dump("a", [])
    a["dropped"] = 3
    b = _dump("b", [])
    b["missing"] = 2
    merged = merge_dumps(a, b)
    assert merged["dropped"] == 3
    assert merged["missing"] == 2
    assert merged["truncated"] is True


# -- causal chains -----------------------------------------------------------


def _two_device_log():
    """a: admin -> tx UPDATE; b: rx UPDATE -> cib_delta -> verdict."""
    a = _dump(
        "a",
        [
            {
                "seq": 0,
                "device": "a",
                "etype": "admin",
                "lamport": 1,
                "kind": "fib_update",
            },
            {
                "seq": 1,
                "device": "a",
                "etype": "frame_tx",
                "lamport": 2,
                "kind": "UPDATE",
                "peer": "b",
                "clock": 2,
                "cause": 0,
            },
        ],
    )
    b = _dump(
        "b",
        [
            {
                "seq": 0,
                "device": "b",
                "etype": "frame_rx",
                "lamport": 3,
                "kind": "UPDATE",
                "peer": "a",
                "clock": 2,
            },
            {
                "seq": 1,
                "device": "b",
                "etype": "cib_delta",
                "lamport": 3,
                "plan": "p",
                "cause": 0,
            },
            {
                "seq": 2,
                "device": "b",
                "etype": "verdict",
                "lamport": 3,
                "plan": "p",
                "node": "b#0",
                "holds": False,
                "prev": True,
                "cause": 0,
            },
        ],
    )
    return merge_dumps(a, b)


def test_chain_crosses_devices_via_lamport_matched_frames():
    merged = _two_device_log()
    chain = causal_chain(merged, device="b", plan="p")
    assert chain_signature(chain) == [
        ("a", "admin", "fib_update"),
        ("a", "frame_tx", "UPDATE"),
        ("b", "frame_rx", "UPDATE"),
        ("b", "verdict", "holds=False"),
    ]


def test_find_verdict_prefers_last_violation():
    merged = _two_device_log()
    merged["events"].append(
        {
            "seq": 3,
            "device": "b",
            "etype": "verdict",
            "lamport": 9,
            "plan": "p",
            "holds": True,
            "prev": False,
        }
    )
    target = find_verdict(merged)
    assert target["holds"] is False  # violation beats the later recovery
    assert find_verdict(merged, plan="absent") is None


def test_chain_stops_at_truncation_boundary():
    merged = _two_device_log()
    # Drop the admin origin: the tx's cause now dangles (ring wrapped).
    merged["events"] = [
        event
        for event in merged["events"]
        if not (event["device"] == "a" and event["seq"] == 0)
    ]
    chain = causal_chain(merged, device="b", plan="p")
    assert chain_signature(chain)[0] == ("a", "frame_tx", "UPDATE")


def test_chain_survives_cause_cycles():
    a = _dump(
        "a",
        [
            {
                "seq": 0,
                "device": "a",
                "etype": "admin",
                "lamport": 1,
                "cause": 1,
            },
            {
                "seq": 1,
                "device": "a",
                "etype": "verdict",
                "lamport": 2,
                "holds": False,
                "cause": 0,
            },
        ],
    )
    chain = causal_chain(merge_dumps(a))
    assert len(chain) == 2  # visited guard breaks the loop
