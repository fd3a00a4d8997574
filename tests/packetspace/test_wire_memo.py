"""One wire form per predicate: the memos behind ``Predicate.to_bytes``
and ``PredicateFactory.from_bytes`` change how often a BDD is walked,
never what is sent, accepted or rejected.
"""

import random
import struct

import pytest

from repro.bdd import deserialize_bdd, serialize_bdd
from repro.packetspace import predicate as predicate_module
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import WIRE_MEMO_BUDGET, PredicateFactory
from tests.dvm.test_wire_fuzz import (
    check_corruption_is_contained,
    check_every_prefix_raises,
    check_round_trips,
    sample_messages,
)
from tests.packetspace.test_properties import LAYOUT


def random_predicates(factory, count, seed):
    """``count`` distinct predicates: unions of one to three prefixes."""
    rng = random.Random(seed)
    seen = {}
    while len(seen) < count:
        predicate = factory.empty()
        for _ in range(rng.randint(1, 3)):
            predicate = predicate | factory.field_prefix(
                "dst_ip", rng.getrandbits(32), rng.randint(8, 32)
            )
        seen[predicate.node] = predicate
    return list(seen.values())


def calls_to(monkeypatch, name):
    """Count calls of the codec function ``name`` made by the memo layer."""
    calls = []
    shipped = getattr(predicate_module, name)

    def counted(manager, argument):
        calls.append(argument)
        return shipped(manager, argument)

    monkeypatch.setattr(predicate_module, name, counted)
    return calls


def test_a_predicate_is_walked_once_and_a_payload_decoded_once(monkeypatch):
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    walked = calls_to(monkeypatch, "serialize_bdd")
    decoded = calls_to(monkeypatch, "deserialize_bdd")
    predicates = random_predicates(factory, 50, seed=1)
    for _ in range(3):
        for predicate in predicates:
            payload = predicate.to_bytes()
            assert payload == serialize_bdd(factory.bdd, predicate.node)
            assert factory.from_bytes(payload) == predicate
    assert len(walked) == len(decoded) == 50


def test_to_bytes_is_the_fresh_wire_form_across_budget_overflows(monkeypatch):
    monkeypatch.setattr(predicate_module, "WIRE_MEMO_BUDGET", 16 * 1024)
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    bdd = factory.bdd
    predicates = random_predicates(factory, 500, seed=2)
    drops = 0
    for _ in range(2):  # the second pass meets whatever survived the first
        for predicate in predicates:
            held = bdd.wire_memo_bytes
            payload = predicate.to_bytes()
            assert payload == serialize_bdd(bdd, predicate.node)
            again = factory.from_bytes(payload)
            assert again.node == deserialize_bdd(bdd, payload) == predicate.node
            drops += bdd.wire_memo_bytes < held
            assert bdd.wire_memo_bytes <= 16 * 1024
    assert drops > 10


def test_a_payload_over_the_budget_is_served_but_not_kept(monkeypatch):
    monkeypatch.setattr(predicate_module, "WIRE_MEMO_BUDGET", 64)
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    predicate = factory.dst_prefix("10.1.2.3/32")
    payload = predicate.to_bytes()
    assert len(payload) > 64
    assert factory.from_bytes(payload) == predicate
    assert factory.bdd.wire_memo_bytes == 0
    assert not factory.bdd.wire_of_node and not factory.bdd.node_of_wire


def test_memo_bytes_stay_within_the_budget_over_20k_predicates():
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    bdd = factory.bdd
    peak = total = 0
    for index in range(20_000):
        payload = factory.field_prefix("dst_ip", index * 7919, 32).to_bytes()
        factory.from_bytes(payload)
        total += 2 * len(payload)
        peak = max(peak, bdd.wire_memo_bytes)
        if index % 500 == 0:  # the account is what the memos really hold
            assert bdd.wire_memo_bytes == sum(
                map(len, [*bdd.wire_of_node.values(), *bdd.node_of_wire])
            )
    assert total > 2 * WIRE_MEMO_BUDGET  # the budget was hit, more than once
    assert WIRE_MEMO_BUDGET // 2 < peak <= WIRE_MEMO_BUDGET


def test_clear_caches_empties_both_memos():
    factory = PredicateFactory(DSTIP_ONLY_LAYOUT)
    predicate = factory.dst_prefix("10.0.0.0/9")
    payload = predicate.to_bytes()
    factory.from_bytes(payload)
    bdd = factory.bdd
    assert bdd.wire_of_node and bdd.node_of_wire
    assert bdd.wire_memo_bytes == 2 * len(payload)
    bdd.clear_caches()
    assert not bdd.wire_of_node and not bdd.node_of_wire
    assert bdd.wire_memo_bytes == 0
    assert factory.from_bytes(predicate.to_bytes()) == predicate


def presented_twice(factory, payload):
    """What ``from_bytes`` makes of ``payload``, checked to be the same on
    a second presentation and equal to a memo-less decode."""
    outcomes = []
    for decode in (
        lambda: factory.from_bytes(payload).node,
        lambda: factory.from_bytes(payload).node,
        lambda: deserialize_bdd(factory.bdd, payload),
    ):
        try:
            outcomes.append(decode())
        except ValueError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


def test_every_malformed_payload_of_the_serialize_tests_is_rejected_twice():
    factory = PredicateFactory(LAYOUT)  # six variables
    bdd = factory.bdd
    node = bdd.var(0)
    for index in range(1, 6):
        node = bdd.apply_xor(node, bdd.var(index))
    parity = factory.from_node(node)  # 11 nodes
    payload = parity.to_bytes()
    assert presented_twice(factory, payload) == parity.node  # memoized now
    for cut in range(len(payload)):
        assert isinstance(presented_twice(factory, payload[:cut]), str)
    assert isinstance(presented_twice(factory, payload + b"\x00"), str)
    rejected = 0
    for position in range(len(payload)):
        for flip in (0x01, 0x80, 0xFF):
            corrupted = bytearray(payload)
            corrupted[position] ^= flip
            outcome = presented_twice(factory, bytes(corrupted))
            rejected += isinstance(outcome, str)
            assert isinstance(outcome, str) or 0 <= outcome < factory.bdd.num_nodes
    assert rejected > 100
    forward_reference = (
        struct.pack("!I", 1) + struct.pack("!III", 0, 5, 1) + struct.pack("!I", 2)
    )
    assert "forward reference" in presented_twice(factory, forward_reference)
    # None of the rejected payloads was remembered.
    for remembered in factory.bdd.node_of_wire:
        deserialize_bdd(PredicateFactory(LAYOUT).bdd, remembered)


def test_every_malformed_frame_of_the_wire_fuzz_is_rejected_twice(factory):
    messages = sample_messages(factory)
    for _ in range(2):  # the second pass runs against filled memos
        check_round_trips(messages, factory)
        check_every_prefix_raises(messages, factory)
        check_corruption_is_contained(messages, factory)
    assert factory.bdd.node_of_wire


def test_a_memo_serves_its_own_manager_only():
    narrow = PredicateFactory(DSTIP_ONLY_LAYOUT)  # 32 variables
    wide = PredicateFactory()  # 104 variables
    ports = wide.dst_prefix("10.0.0.0/8") & wide.dst_port(443)
    payload = ports.to_bytes()
    assert wide.from_bytes(payload) == ports  # cached under the wide layout
    for _ in range(2):
        with pytest.raises(ValueError, match="variable"):
            narrow.from_bytes(payload)
    assert payload not in narrow.bdd.node_of_wire

    # The other way round the payload is *valid* -- dst_ip is variables
    # 0..31 of both layouts -- so every existing check passes; it decodes
    # into the wide manager's own node, not the narrow one's id.
    narrow.dst_prefix("192.168.0.0/16")  # make the two node numberings differ
    prefix = narrow.dst_prefix("10.0.0.0/8")
    payload = prefix.to_bytes()
    assert narrow.from_bytes(payload) == prefix
    for _ in range(2):
        assert wide.from_bytes(payload) == wide.dst_prefix("10.0.0.0/8")
    assert wide.bdd.node_of_wire[payload] != narrow.bdd.node_of_wire[payload]
