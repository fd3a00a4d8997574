"""Codec robustness fuzzing (satellite of the runtime subsystem).

The runtime feeds raw socket bytes into the decoder, so the codec must
be total: every well-formed frame round-trips; every truncation and
byte-corruption either raises :class:`MessageDecodeError` or decodes to
some :class:`Message` -- it must never escape with another exception.

The corpus is derived from the wire schema (``repro.dvm.messages.ROWS``):
one value per field-codec kind and tier below, one message per row and
tier.  A new row is fuzzed without an edit here; a new codec kind
without sample values is a ``KeyError``.
"""

import random
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.counting.counts import CountSet
from repro.dvm import messages as wire
from repro.dvm.messages import (
    COUNTSET,
    MAGIC,
    MAX_COUNTSET_COMPONENTS,
    PREDICATE,
    STR,
    TYPE_UPDATE,
    U32,
    VERSION,
    KeepaliveMessage,
    Message,
    MessageDecodeError,
    OpenMessage,
    Repeat,
    Seq,
    UpdateMessage,
    _FRAME,
    _U16,
    _U32,
    decode_message,
    decode_stream,
    encode_message,
    message_kind,
)

#: The largest string a u16 length prefix can carry.
MAX_STR = "x" * 0xFFFF

EMPTY, SMALL, MAX = range(3)


def leaf_samples(factory):
    """Codec kind (its ``doc``) -> one value per tier: every length
    prefix at zero, a representative value, every prefix saturated."""
    return {
        "str": ("", "plan-1", MAX_STR),
        "u32": (0, 7, 0xFFFFFFFF),
        "u8": (False, True, True),
        "predicate": (
            factory.empty(),
            factory.dst_prefix("10.0.1.0/24"),
            factory.dst_prefix("10.0.0.0/23"),
        ),
        "countset": (
            CountSet(1, []),
            CountSet.scalar(1, 2),
            CountSet(0xFFFF, [tuple(range(0xFFFF))]),
        ),
    }


def sample_value(codec, tier, leaves):
    if isinstance(codec, Seq):
        return tuple(sample_value(item, tier, leaves) for item in codec.items)
    if isinstance(codec, Repeat):
        # MAX saturates the item, not the count: 0xFFFF saturated items
        # overflow the body cap (the count has its own test below).
        count = (0, 2, 1)[tier]
        return (sample_value(codec.item, tier, leaves),) * count
    return leaves[codec.doc][tier]


def corpus(factory, *tiers):
    leaves = leaf_samples(factory)
    return [
        row.cls(
            **{
                name: sample_value(codec, tier, leaves)
                for name, codec in row.fields
            }
        )
        for _, row in sorted(wire.ROWS.items())
        for tier in tiers
    ]


def sample_messages(factory):
    """Two instances of every wire message type: a representative one
    and one with every variable-length part empty (which, for OPEN, is
    the session-control frame)."""
    return corpus(factory, SMALL, EMPTY)


def max_length_messages(factory):
    """One vector per wire message type saturating its length prefixes.

    Strings sit exactly at the u16 limit (0xFFFF bytes) and count sets
    at the u16 dimension limit, so every boundary guard in the codec is
    exercised from the *valid* side.  Kept out of
    :func:`sample_messages` deliberately: the per-byte corruption and
    truncation sweeps there are O(frame size) per message and these
    frames are ~half a megabyte.
    """
    return corpus(factory, MAX)


def check_round_trips(messages, factory):
    for message in messages:
        assert decode_message(encode_message(message), factory) == message


def check_stream_round_trips(messages, factory):
    blob = b"".join(encode_message(m) for m in messages)
    decoded, remainder = decode_stream(blob, factory)
    assert decoded == messages
    assert remainder == b""


def check_every_prefix_raises(messages, factory):
    """Cutting a frame at *every* byte offset raises cleanly."""
    for message in messages:
        encoded = encode_message(message)
        for cut in range(len(encoded)):
            with pytest.raises(MessageDecodeError):
                decode_message(encoded[:cut], factory)


def check_corruption_is_contained(messages, factory):
    """Flipping any byte raises MessageDecodeError or still decodes.

    Corruption inside variable payloads can produce a different but
    well-formed message; what it must never do is escape as an
    unrelated exception (struct.error, IndexError, ...).
    """
    rng = random.Random(20220814)
    for message in messages:
        encoded = bytearray(encode_message(message))
        for position in range(len(encoded)):
            corrupted = bytearray(encoded)
            corrupted[position] ^= 1 + rng.randrange(255)
            try:
                decoded = decode_message(bytes(corrupted), factory)
            except MessageDecodeError:
                continue
            assert isinstance(decoded, Message)


class TestRoundTrip:
    def test_corpus_covers_every_row(self, factory):
        for messages in (sample_messages(factory), max_length_messages(factory)):
            assert {type(m) for m in messages} == {
                row.cls for row in wire.ROWS.values()
            }

    def test_every_type_round_trips(self, factory):
        check_round_trips(sample_messages(factory), factory)

    def test_stream_of_all_types_round_trips(self, factory):
        check_stream_round_trips(sample_messages(factory), factory)


class TestTruncation:
    def test_every_prefix_raises_never_crashes(self, factory):
        check_every_prefix_raises(sample_messages(factory), factory)

    def test_trailing_garbage_raises(self, factory):
        for message in sample_messages(factory):
            with pytest.raises(MessageDecodeError):
                decode_message(encode_message(message) + b"\x00", factory)

    def test_stream_keeps_partial_frames(self, factory):
        """decode_stream never raises on truncation -- it buffers."""
        encoded = max(map(encode_message, sample_messages(factory)), key=len)
        for cut in range(len(encoded)):
            decoded, remainder = decode_stream(encoded[:cut], factory)
            assert decoded == []
            assert remainder == encoded[:cut]


class TestMaxLength:
    def test_every_type_round_trips_at_the_limits(self, factory):
        for message in max_length_messages(factory):
            encoded = encode_message(message)
            assert decode_message(encoded, factory) == message

    def test_sampled_truncation_raises_cleanly(self, factory):
        """A per-byte sweep would be O(n^2) at half a megabyte; cutting
        at a spread of offsets (plus both edges) keeps the same
        contract cheap."""
        rng = random.Random(0xFFFF)
        for message in max_length_messages(factory):
            encoded = encode_message(message)
            cuts = {0, 1, len(encoded) - 1} | {
                rng.randrange(len(encoded)) for _ in range(32)
            }
            for cut in sorted(cuts):
                with pytest.raises(MessageDecodeError):
                    decode_message(encoded[:cut], factory)

    def test_entry_count_at_the_u16_limit_round_trips(self, factory):
        message = UpdateMessage(
            plan_id="p",
            up_node="u",
            down_node="v",
            withdrawn=(factory.empty(),) * 0xFFFF,
            results=(),
        )
        assert decode_message(encode_message(message), factory) == message

    def test_string_over_u16_limit_is_rejected(self):
        with pytest.raises(ValueError):
            encode_message(
                OpenMessage(plan_id="x" * 0x10000, device="S")
            )

    def test_countset_dimension_over_u16_limit_is_rejected(self, factory):
        counts = CountSet(0x10000, [tuple(range(0x10000))])
        with pytest.raises(ValueError):
            encode_message(
                UpdateMessage(
                    plan_id="p",
                    up_node="u",
                    down_node="v",
                    withdrawn=(),
                    results=((factory.dst_prefix("10.0.0.0/24"), counts),),
                )
            )

    def test_update_entry_counts_over_u16_limit_are_rejected(self, factory):
        predicate = factory.dst_prefix("10.0.0.0/24")
        too_many = ((predicate, CountSet.scalar(0)),) * 0x10000
        with pytest.raises(ValueError):
            encode_message(
                UpdateMessage(
                    plan_id="p",
                    up_node="u",
                    down_node="v",
                    withdrawn=(),
                    results=too_many,
                )
            )


def pack(codec, value):
    out = []
    codec.pack(value, out)
    return b"".join(out)


class TestCountsetHardening:
    """The ``COUNTSET.unpack`` guards a fuzz sweep cannot reach: the
    attacks need headers no honest encoder produces."""

    def test_zero_dimension_with_nonzero_size_is_rejected(self, factory):
        """dim=0 makes the element loop advance zero bytes per tuple:
        without the guard, the bounds check passes vacuously while the
        decoder allocates ``size`` empty tuples."""
        predicate = factory.dst_prefix("10.0.0.0/24")
        body = (
            pack(STR, "p")
            + pack(STR, "u")
            + pack(STR, "d")
            + _U16.pack(0)  # n_withdrawn
            + _U16.pack(1)  # n_results
            + pack(PREDICATE, predicate)
            + _U16.pack(0)  # countset dim == 0
            + _U32.pack(7)  # ...but size != 0
        )
        frame = _FRAME.pack(MAGIC, VERSION, TYPE_UPDATE, 0, len(body)) + body
        with pytest.raises(MessageDecodeError):
            decode_message(frame, factory)

    def test_component_total_over_cap_is_rejected(self, factory):
        """size * dim beyond MAX_BODY_LENGTH/4 components cannot be a
        real body; the cap fires before any allocation."""
        header = _U16.pack(2) + _U32.pack(MAX_COUNTSET_COMPONENTS)
        with pytest.raises(MessageDecodeError):
            COUNTSET.unpack(header, 0, len(header), factory)

    def test_truncated_countset_body_is_rejected(self, factory):
        """The whole-repetition bound fires before the element loop."""
        payload = _U16.pack(2) + _U32.pack(3) + _U32.pack(1) * 5  # claims 6
        with pytest.raises(MessageDecodeError):
            COUNTSET.unpack(payload, 0, len(payload), factory)

    def test_bound_is_the_frame_end_not_the_buffer_end(self, factory):
        """Decoding in place: bytes past ``end`` belong to the next
        frame of the stream and must not satisfy a bounds check."""
        payload = pack(COUNTSET, CountSet.scalar(1, 2))
        with pytest.raises(MessageDecodeError):
            COUNTSET.unpack(payload + b"\x00" * 8, 0, len(payload) - 1, factory)
        with pytest.raises(MessageDecodeError):
            STR.unpack(pack(STR, "abc") + b"zz", 0, 4, factory)

    def test_exact_countset_body_round_trips(self, factory):
        payload = (
            _U16.pack(2)
            + _U32.pack(2)
            + _U32.pack(1)
            + _U32.pack(2)
            + _U32.pack(3)
            + _U32.pack(4)
        )
        counts, offset = COUNTSET.unpack(payload, 0, len(payload), factory)
        assert offset == len(payload)
        assert counts == CountSet(2, [(1, 2), (3, 4)])


class TestCorruption:
    def test_single_byte_corruption_is_contained(self, factory):
        check_corruption_is_contained(sample_messages(factory), factory)

    def test_header_corruption_always_raises(self, factory):
        """Magic and version bytes (offsets 0..2) are strict."""
        encoded = bytearray(
            encode_message(OpenMessage(plan_id="p", device="S"))
        )
        for position in range(3):
            for flip in range(1, 256):
                corrupted = bytearray(encoded)
                corrupted[position] ^= flip
                with pytest.raises(MessageDecodeError):
                    decode_message(bytes(corrupted), factory)

    def test_random_garbage_is_contained(self, factory):
        rng = random.Random(0xD7A1)
        for _ in range(200):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            try:
                decode_message(blob, factory)
            except MessageDecodeError:
                pass

    def test_stream_garbage_after_good_frame(self, factory):
        """Garbage anywhere in a chunk poisons the whole stream.

        That is the right contract for a TCP byte stream: nothing after
        a corrupt header can be trusted, so the channel owner drops the
        connection (in-flight state is refreshed on reconnect).
        """
        good = encode_message(KeepaliveMessage(plan_id="", device="A"))
        with pytest.raises(MessageDecodeError):
            decode_stream(good + b"\xde\xad\xbe\xef" * 3, factory)
        with pytest.raises(MessageDecodeError):
            decode_stream(b"\xde\xad\xbe\xef" * 3, factory)


@dataclass(frozen=True)
class ProbeMessage(Message):
    """A frame kind no module knows: declared by the one row below."""

    hops: Tuple[Tuple[str, int], ...]
    region: object


def test_a_new_frame_kind_is_one_row(factory, monkeypatch):
    """What the retired drift checkers policed is no longer expressible:
    a sixth kind needs no encode branch, decode branch, label map or
    corpus entry -- ``add_row`` is the only edit."""
    monkeypatch.setattr(wire, "ROWS", dict(wire.ROWS))
    monkeypatch.setattr(wire, "_ROW_OF", dict(wire._ROW_OF))
    row = wire.add_row(
        6, "PROBE", ProbeMessage,
        ("plan_id", STR), ("hops", Repeat(Seq(STR, U32))), ("region", PREDICATE),
    )
    probes = [
        message
        for message in sample_messages(factory) + max_length_messages(factory)
        if type(message) is ProbeMessage
    ]
    assert probes[0].hops == (("plan-1", 7), ("plan-1", 7))
    assert probes[2].hops == ((MAX_STR, 0xFFFFFFFF),)
    assert {message_kind(probe) for probe in probes} == {"PROBE"}
    assert row.event == "rx_probe"
    assert encode_message(probes[0])[3] == 6
    check_round_trips(probes, factory)
    check_stream_round_trips(probes, factory)
    del probes[2]  # the byte-by-byte sweeps are O(n^2) on the 64 KB frame
    check_every_prefix_raises(probes, factory)
    check_corruption_is_contained(probes, factory)
