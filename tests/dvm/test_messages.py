"""Unit tests for the DVM wire codec."""

import pytest

from repro.counting.counts import CountSet
from repro.dvm.linkstate import LinkStateMessage
from repro.dvm.messages import (
    KeepaliveMessage,
    MessageDecodeError,
    OpenMessage,
    SubscribeMessage,
    UpdateMessage,
    decode_message,
    encode_message,
)


class TestRoundTrips:
    def test_open(self, factory):
        message = OpenMessage(plan_id="p1", device="S")
        assert decode_message(encode_message(message), factory) == message

    def test_keepalive(self, factory):
        message = KeepaliveMessage(plan_id="p1", device="W")
        assert decode_message(encode_message(message), factory) == message

    def test_update(self, factory):
        message = UpdateMessage(
            plan_id="plan-7",
            up_node="A#1",
            down_node="B#2",
            withdrawn=(factory.dst_prefix("10.0.0.0/23"),),
            results=(
                (factory.dst_prefix("10.0.0.0/24"), CountSet.scalar(0)),
                (factory.dst_prefix("10.0.1.0/24"), CountSet.scalar(1, 2)),
            ),
        )
        decoded = decode_message(encode_message(message), factory)
        assert decoded == message

    def test_update_empty(self, factory):
        message = UpdateMessage(
            plan_id="p", up_node="u", down_node="v", withdrawn=(), results=()
        )
        assert decode_message(encode_message(message), factory) == message

    def test_update_multidim_counts(self, factory):
        counts = CountSet(3, [(1, 0, 2), (0, 1, 0)])
        message = UpdateMessage(
            plan_id="p",
            up_node="u",
            down_node="v",
            withdrawn=(factory.all_packets(),),
            results=((factory.all_packets(), counts),),
        )
        decoded = decode_message(encode_message(message), factory)
        assert decoded.results[0][1] == counts

    def test_subscribe(self, factory):
        message = SubscribeMessage(
            plan_id="p",
            up_node="u",
            down_node="v",
            original=factory.dst_port(80),
            transformed=factory.dst_port(443),
        )
        assert decode_message(encode_message(message), factory) == message

    def test_linkstate(self, factory):
        message = LinkStateMessage(
            plan_id="p", origin="S", sequence=4, link=("A", "B"), up=False
        )
        assert decode_message(encode_message(message), factory) == message


class TestFraming:
    def test_bad_magic_rejected(self, factory):
        payload = bytearray(encode_message(OpenMessage(plan_id="p", device="S")))
        payload[0] ^= 0xFF
        with pytest.raises(MessageDecodeError):
            decode_message(bytes(payload), factory)

    def test_bad_version_rejected(self, factory):
        payload = bytearray(encode_message(OpenMessage(plan_id="p", device="S")))
        payload[2] = 99
        with pytest.raises(MessageDecodeError):
            decode_message(bytes(payload), factory)

    def test_truncated_rejected(self, factory):
        payload = encode_message(OpenMessage(plan_id="p", device="S"))
        with pytest.raises(MessageDecodeError):
            decode_message(payload[:-1], factory)

    def test_too_short_rejected(self, factory):
        with pytest.raises(MessageDecodeError):
            decode_message(b"\x00\x01", factory)

    def test_unknown_type_rejected(self, factory):
        payload = bytearray(encode_message(OpenMessage(plan_id="p", device="S")))
        payload[3] = 42
        with pytest.raises(MessageDecodeError):
            decode_message(bytes(payload), factory)

    def test_unicode_device_names(self, factory):
        message = OpenMessage(plan_id="p", device="rtr-zürich")
        assert decode_message(encode_message(message), factory) == message
