"""Unit tests for BDD serialization."""

import pytest

from repro.bdd.manager import FALSE, TRUE, BDDManager
from repro.bdd.serialize import deserialize_bdd, serialize_bdd


@pytest.fixture()
def bdd():
    return BDDManager(6)


def test_terminals_round_trip(bdd):
    for terminal in (FALSE, TRUE):
        payload = serialize_bdd(bdd, terminal)
        assert deserialize_bdd(bdd, payload) == terminal


def test_internal_round_trip(bdd):
    node = bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(2)), bdd.nvar(4))
    payload = serialize_bdd(bdd, node)
    assert deserialize_bdd(bdd, payload) == node


def test_cross_manager_recanonicalizes(bdd):
    node = bdd.apply_and(bdd.var(1), bdd.var(3))
    payload = serialize_bdd(bdd, node)
    fresh = BDDManager(6)
    copied = deserialize_bdd(fresh, payload)
    expected = fresh.apply_and(fresh.var(1), fresh.var(3))
    assert copied == expected


def test_truncated_payload_rejected(bdd):
    node = bdd.apply_and(bdd.var(0), bdd.var(1))
    payload = serialize_bdd(bdd, node)
    with pytest.raises(ValueError):
        deserialize_bdd(bdd, payload[:-2])


def test_empty_payload_rejected(bdd):
    with pytest.raises(ValueError):
        deserialize_bdd(bdd, b"")


def test_variable_overflow_rejected():
    big = BDDManager(32)
    node = big.var(20)
    payload = serialize_bdd(big, node)
    small = BDDManager(4)
    with pytest.raises(ValueError):
        deserialize_bdd(small, payload)


def test_forward_reference_rejected(bdd):
    import struct

    # One node referencing node index 5 which does not exist yet.
    payload = (
        struct.pack("!I", 1)
        + struct.pack("!III", 0, 5, 1)
        + struct.pack("!I", 2)
    )
    with pytest.raises(ValueError):
        deserialize_bdd(bdd, payload)


def test_size_grows_with_structure(bdd):
    small = serialize_bdd(bdd, bdd.var(0))
    parity = bdd.var(0)
    for index in range(1, 6):
        parity = bdd.apply_xor(parity, bdd.var(index))
    large = serialize_bdd(bdd, parity)
    assert len(large) > len(small)


def test_prefixes_and_corruptions_decode_or_raise_value_error(bdd):
    """The decoder reads bytes that arrived from a socket: whatever they
    are, it returns a node or raises ``ValueError`` -- never
    ``struct.error``, ``IndexError`` or a node the manager does not own."""
    parity = bdd.var(0)
    for index in range(1, 6):
        parity = bdd.apply_xor(parity, bdd.var(index))
    payload = serialize_bdd(bdd, parity)  # 11 nodes
    assert deserialize_bdd(bdd, payload) == parity
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            deserialize_bdd(bdd, payload[:cut])
    for position in range(len(payload)):
        for flip in (0x01, 0x80, 0xFF):
            corrupted = bytearray(payload)
            corrupted[position] ^= flip
            try:
                node = deserialize_bdd(bdd, bytes(corrupted))
            except ValueError:
                continue
            assert 0 <= node < bdd.num_nodes
