"""Wire-size characteristics of DVM messages.

The protocol's practicality rests on small messages (§9.3's overhead
study); these tests pin the frame sizes' scaling behavior.
"""

import pytest

from repro.counting.counts import CountSet
from repro.dvm.messages import (
    KeepaliveMessage,
    OpenMessage,
    UpdateMessage,
    encode_message,
)


def test_control_messages_are_tiny(factory):
    open_size = len(encode_message(OpenMessage(plan_id="p1", device="S")))
    keepalive = len(encode_message(KeepaliveMessage(plan_id="p1", device="S")))
    assert open_size < 32
    assert keepalive < 32


def test_update_size_scales_with_predicates(factory):
    def update(num_prefixes):
        results = tuple(
            (factory.dst_prefix(f"10.0.{i}.0/24"), CountSet.scalar(1))
            for i in range(num_prefixes)
        )
        withdrawn = tuple(p for p, _ in results)
        return UpdateMessage(
            plan_id="p",
            up_node="u#1",
            down_node="v#1",
            withdrawn=withdrawn,
            results=results,
        )

    small = len(encode_message(update(1)))
    large = len(encode_message(update(8)))
    assert small < large < small * 16


def test_minimal_info_shrinks_updates(factory):
    """Prop. 1's wire-side effect: one scalar vs. a whole count set."""
    predicate = factory.dst_prefix("10.0.0.0/24")
    full = UpdateMessage(
        plan_id="p",
        up_node="u#1",
        down_node="v#1",
        withdrawn=(predicate,),
        results=((predicate, CountSet.scalar(*range(32))),),
    )
    from repro.spec.ast import CountExpr

    projected = UpdateMessage(
        plan_id="p",
        up_node="u#1",
        down_node="v#1",
        withdrawn=(predicate,),
        results=(
            (predicate, CountSet.scalar(*range(32)).minimal_info(CountExpr(">=", 1))),
        ),
    )
    assert len(encode_message(projected)) < len(encode_message(full))
    assert len(encode_message(full)) - len(encode_message(projected)) >= 31 * 4  # 31 u32s


def test_prefix_predicate_encoding_is_compact(factory):
    """A /24 prefix over the 104-bit layout stays under 512 bytes."""
    payload = factory.dst_prefix("10.1.2.0/24").to_bytes()
    assert len(payload) < 512


def test_deep_predicate_grows_linearly(factory):
    sizes = []
    for bits in (8, 16, 24, 32):
        payload = factory.field_prefix("dst_ip", 0xDEADBEEF, bits).to_bytes()
        sizes.append(len(payload))
    assert sizes == sorted(sizes)
    assert sizes[-1] < sizes[0] * 8
