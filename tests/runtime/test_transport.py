"""Framed transport: reassembly, ordering, decode-error containment."""

import asyncio

import pytest

from repro.counting.counts import CountSet
from repro.dvm.messages import (
    KeepaliveMessage,
    MessageDecodeError,
    OpenMessage,
    UpdateMessage,
    encode_message,
)
from repro.runtime.metrics import DeviceMetrics
from repro.runtime.transport import (
    FrameAssembler,
    FramedChannel,
    is_control_frame,
)


def make_messages(factory, count=20):
    return [
        UpdateMessage(
            plan_id="plan-1",
            up_node="A#1",
            down_node=f"W#{index}",
            withdrawn=(factory.dst_prefix("10.0.0.0/23"),),
            results=(
                (factory.dst_prefix("10.0.0.0/24"), CountSet.scalar(index)),
            ),
        )
        for index in range(count)
    ]


class TestFrameAssembler:
    def test_byte_at_a_time_reassembly(self, dst_factory):
        """Frames split at *every* boundary still decode, in order."""
        messages = make_messages(dst_factory, 5)
        blob = b"".join(encode_message(m) for m in messages)
        assembler = FrameAssembler(dst_factory)
        decoded = []
        for index in range(len(blob)):
            decoded.extend(assembler.feed(blob[index : index + 1]))
        assert decoded == messages
        assert assembler.pending_bytes == 0

    def test_coalesced_frames_in_one_chunk(self, dst_factory):
        messages = make_messages(dst_factory, 8)
        blob = b"".join(encode_message(m) for m in messages)
        assembler = FrameAssembler(dst_factory)
        assert assembler.feed(blob) == messages

    def test_garbage_raises(self, dst_factory):
        assembler = FrameAssembler(dst_factory)
        with pytest.raises(MessageDecodeError):
            assembler.feed(b"\xff" * 16)

    def test_partial_frame_stays_buffered(self, dst_factory):
        message = make_messages(dst_factory, 1)[0]
        encoded = encode_message(message)
        assembler = FrameAssembler(dst_factory)
        assert assembler.feed(encoded[:10]) == []
        assert assembler.pending_bytes == 10
        assert assembler.feed(encoded[10:]) == [message]


class TestControlFrames:
    def test_session_frames_are_control(self):
        assert is_control_frame(OpenMessage(plan_id="", device="S"))
        assert is_control_frame(KeepaliveMessage(plan_id="", device="S"))

    def test_plan_frames_are_not(self):
        assert not is_control_frame(OpenMessage(plan_id="p", device="S"))
        assert not is_control_frame(KeepaliveMessage(plan_id="p", device="S"))


async def tcp_channel_pair(factory):
    """Two FramedChannels joined by a real localhost TCP connection."""
    accepted = asyncio.get_running_loop().create_future()

    async def on_accept(reader, writer):
        accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_accept, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    creader, cwriter = await asyncio.open_connection("127.0.0.1", port)
    sreader, swriter = await accepted
    client = FramedChannel(creader, cwriter, factory, DeviceMetrics("client"))
    peer = FramedChannel(sreader, swriter, factory, DeviceMetrics("server"))
    client.start()
    peer.start()
    return server, client, peer


class TestFramedChannel:
    def test_fifo_order_over_tcp(self, run, dst_factory):
        async def scenario():
            server, client, peer = await tcp_channel_pair(dst_factory)
            try:
                messages = make_messages(dst_factory, 50)
                for message in messages:
                    client.send(message)
                received = [await peer.receive() for _ in messages]
                assert received == messages
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_eof_returns_none(self, run, dst_factory):
        async def scenario():
            server, client, peer = await tcp_channel_pair(dst_factory)
            try:
                await client.close()
                assert await peer.receive() is None
            finally:
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_garbage_on_wire_raises_and_counts(self, run, dst_factory):
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_accept(reader, writer):
                accepted.set_result(writer)

            server = await asyncio.start_server(
                on_accept, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            metrics = DeviceMetrics("victim")
            channel = FramedChannel(reader, writer, dst_factory, metrics)
            channel.start()
            raw_writer = await accepted
            try:
                raw_writer.write(b"\xde\xad\xbe\xef" * 4)
                await raw_writer.drain()
                with pytest.raises(MessageDecodeError):
                    await channel.receive()
                assert metrics.decode_errors.value == 1
            finally:
                await channel.close()
                raw_writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_metrics_split_control_from_counting(self, run, dst_factory):
        async def scenario():
            server, client, peer = await tcp_channel_pair(dst_factory)
            try:
                client.send(OpenMessage(plan_id="", device="c"))
                assert is_control_frame(await peer.receive())
                counting = make_messages(dst_factory, 3)
                for message in counting:
                    client.send(message)
                for _ in counting:
                    await peer.receive()
                assert peer._metrics.control_in.value == 1
                assert peer._metrics.messages_in.value == 3
                assert client._metrics.control_out.value == 1
                assert client._metrics.messages_out.value == 3
                assert client._metrics.bytes_out.value > 0
            finally:
                await client.close()
                await peer.close()
                server.close()
                await server.wait_closed()

        run(scenario())
