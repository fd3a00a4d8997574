"""DVM message types and binary wire codec (paper §5.2, §8).

An UPDATE message carries, for one DPVNet link ``(up_node, down_node)``
traversed in reverse:

* *withdrawn predicates* -- the regions whose previous results are now
  obsolete, and
* *incoming counting results* -- ``(predicate, count set)`` pairs with the
  latest counts,

obeying the protocol principle that the union of withdrawn predicates
equals the union of the incoming predicates, so receivers always hold
complete, latest information.

The wire format is length-prefixed big-endian binary; predicates travel
as serialized BDDs (the paper serializes JDD BDDs via Protobuf -- we use
our own codec, same role).  The codec is exercised for every message in
the simulator, so wire size statistics in the benchmarks are real.

Each frame kind is one :class:`Row` of one table (:data:`ROWS`): its
wire type, its name, its message class and its body as a list of
``(field, codec)``.  One loop packs and one loop unpacks every kind from
its row, so a kind has no layout anywhere else to drift from;
``docs/PROTOCOL.md`` is compared with the rows by
``tests/dvm/test_wire_schema.py``.

Frame layout::

    u16 magic (0xD7A1)   u8 version (1)   u8 type   u32 clock
    u32 body_length   body

``clock`` is the sender's Lamport logical clock at send time (stamped
unconditionally by both backends; receivers fold it into their own
clock).  It travels in the fixed header -- not the body -- so message
dataclasses stay frozen and value-equal regardless of when they were
sent: the codec reads it from the optional ``clock`` attribute
(default 0) and re-attaches it on decode without making it part of
equality.  The flight recorder (:mod:`repro.obs.flight`) uses it to
causally order merged per-device event logs and to match a received
frame to the peer's send.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Protocol, Tuple, Type, Union

from repro.counting.counts import CountSet
from repro.packetspace.predicate import Predicate, PredicateFactory

MAGIC = 0xD7A1
VERSION = 1

_FRAME = struct.Struct("!HBBII")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: Upper bound on a frame body.  The largest legitimate frames are burst
#: UPDATEs carrying serialized BDDs; even paper-scale bursts stay far
#: below this, so anything bigger is a corrupt length field and rejecting
#: it keeps a stream decoder from buffering unbounded garbage.
MAX_BODY_LENGTH = 16 * 1024 * 1024

#: Upper bound on the total u32 components of one wire count set
#: (``size * dim``).  A count set's body can never exceed the frame body
#: cap, so the cap is checked *before* the element loop runs: a crafted
#: header cannot make the decoder allocate more than one frame's worth
#: of tuples regardless of what the bounds check against the actual
#: payload length would conclude.
MAX_COUNTSET_COMPONENTS = MAX_BODY_LENGTH // 4

TYPE_OPEN = 1
TYPE_KEEPALIVE = 2
TYPE_UPDATE = 3
TYPE_SUBSCRIBE = 4
TYPE_LINKSTATE = 5

#: What the decoder reads from: a whole frame, or a view into a stream.
Buffer = Union[bytes, memoryview]


class MessageDecodeError(ValueError):
    """Raised for malformed DVM frames."""


@dataclass(frozen=True)
class Message:
    """Base class; ``plan_id`` scopes messages to one invariant's plan."""

    plan_id: str


@dataclass(frozen=True)
class OpenMessage(Message):
    """Session establishment between neighboring verifiers."""

    device: str


@dataclass(frozen=True)
class KeepaliveMessage(Message):
    """Liveness probe."""

    device: str


@dataclass(frozen=True)
class UpdateMessage(Message):
    """Counting results sent from a downstream node to an upstream one."""

    up_node: str
    down_node: str
    withdrawn: Tuple[Predicate, ...]
    results: Tuple[Tuple[Predicate, CountSet], ...]

    def wire_size(self) -> int:
        """Encoded size in bytes (message overhead metric, §9.3)."""
        return len(encode_message(self))


@dataclass(frozen=True)
class SubscribeMessage(Message):
    """Ask a downstream device for counts of a transformed predicate.

    Sent when the subscriber's device rewrites packets in ``original``
    into ``transformed`` before forwarding (paper §5.2, packet
    transformations): the downstream node must track and report counts
    for ``transformed``.
    """

    up_node: str
    down_node: str
    original: Predicate
    transformed: Predicate


# ---------------------------------------------------------------------------
# field codecs


class Codec(Protocol):
    """The layout of one kind of field, in both directions.

    ``pack`` appends the encoding of ``value`` to ``out`` and enforces
    the cap its length prefix can carry; ``unpack`` reads one value from
    ``buf[offset:end]`` -- every read preceded by its bounds check -- and
    returns it with the offset after it.  A prefix is written and read
    through the same ``struct`` object, so the two directions cannot
    disagree on its width.  ``doc`` is the field's type as
    ``docs/PROTOCOL.md`` spells it.
    """

    doc: str

    def pack(self, value: Any, out: List[bytes]) -> None: ...

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[Any, int]: ...


class _Fixed:
    """One fixed-width scalar; ``cast`` restores its Python type."""

    def __init__(
        self, fmt: struct.Struct, doc: str, cast: Callable[[int], Any]
    ) -> None:
        self.fmt, self.doc, self.cast = fmt, doc, cast

    def pack(self, value: Any, out: List[bytes]) -> None:
        out.append(self.fmt.pack(value))

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[Any, int]:
        stop = offset + self.fmt.size
        if stop > end:
            raise MessageDecodeError(f"truncated {self.doc}")
        return self.cast(self.fmt.unpack_from(buf, offset)[0]), stop


class _Prefixed:
    """A length prefix and that many bytes; subclasses say what they hold."""

    def __init__(self, prefix: struct.Struct, cap: int, doc: str) -> None:
        self.prefix, self.cap, self.doc = prefix, cap, doc

    def pack_raw(self, raw: bytes, out: List[bytes]) -> None:
        if len(raw) > self.cap:
            raise ValueError(f"{self.doc} too long for wire format")
        out.append(self.prefix.pack(len(raw)))
        out.append(raw)

    def unpack_raw(self, buf: Buffer, offset: int, end: int) -> Tuple[Buffer, int]:
        start = offset + self.prefix.size
        if start > end:
            raise MessageDecodeError(f"truncated {self.doc} length")
        stop = start + self.prefix.unpack_from(buf, offset)[0]
        if stop > end:
            raise MessageDecodeError(f"truncated {self.doc} body")
        return buf[start:stop], stop


class _Str(_Prefixed):
    def pack(self, value: str, out: List[bytes]) -> None:
        self.pack_raw(value.encode("utf-8"), out)

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[str, int]:
        raw, offset = self.unpack_raw(buf, offset, end)
        return str(raw, "utf-8"), offset


class _Predicate(_Prefixed):
    def pack(self, value: Predicate, out: List[bytes]) -> None:
        self.pack_raw(value.to_bytes(), out)

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[Predicate, int]:
        raw, offset = self.unpack_raw(buf, offset, end)
        return factory.from_bytes(bytes(raw)), offset


class _CountSet:
    doc = "countset"

    def pack(self, counts: CountSet, out: List[bytes]) -> None:
        if counts.dim > 0xFFFF:
            raise ValueError("count set dimension too large for wire format")
        if len(counts.tuples) > MAX_COUNTSET_COMPONENTS:
            raise ValueError("count set too large for wire format")
        out.append(_U16.pack(counts.dim))
        out.append(_U32.pack(len(counts.tuples)))
        for element in sorted(counts.tuples):
            out.extend(_U32.pack(component) for component in element)

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[CountSet, int]:
        if offset + _U16.size + _U32.size > end:
            raise MessageDecodeError("truncated count set header")
        (dim,) = _U16.unpack_from(buf, offset)
        offset += _U16.size
        (size,) = _U32.unpack_from(buf, offset)
        offset += _U32.size
        # A zero dimension would make the element loop below advance the
        # cursor by zero bytes per tuple: the bounds check would pass
        # vacuously while the decoder allocated ``size`` empty tuples.
        if dim == 0 and size != 0:
            raise MessageDecodeError("count set with zero dimension")
        if size * dim > MAX_COUNTSET_COMPONENTS:
            raise MessageDecodeError("count set exceeds component cap")
        if offset + size * dim * _U32.size > end:
            raise MessageDecodeError("truncated count set body")
        tuples = []
        for _ in range(size):
            element = []
            for _ in range(dim):
                (component,) = _U32.unpack_from(buf, offset)
                offset += _U32.size
                element.append(component)
            tuples.append(tuple(element))
        return CountSet(dim, tuples), offset


class Repeat:
    """``u16 n`` and then ``n`` items: a tuple-valued field."""

    def __init__(self, item: Codec) -> None:
        self.item, self.doc = item, f"u16 n * ({item.doc})"

    def pack(self, values: Tuple[Any, ...], out: List[bytes]) -> None:
        if len(values) > 0xFFFF:
            raise ValueError("too many entries for one frame")
        out.append(_U16.pack(len(values)))
        pack = self.item.pack
        for value in values:
            pack(value, out)

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[Tuple[Any, ...], int]:
        if offset + _U16.size > end:
            raise MessageDecodeError("truncated entry count")
        (count,) = _U16.unpack_from(buf, offset)
        offset += _U16.size
        unpack = self.item.unpack
        values = []
        for _ in range(count):
            value, offset = unpack(buf, offset, end, factory)
            values.append(value)
        return tuple(values), offset


class Seq:
    """Several codecs side by side, no prefix: a fixed-length tuple."""

    def __init__(self, *items: Codec) -> None:
        self.items, self.doc = items, ", ".join(item.doc for item in items)

    def pack(self, values: Tuple[Any, ...], out: List[bytes]) -> None:
        for item, value in zip(self.items, values):
            item.pack(value, out)

    def unpack(
        self, buf: Buffer, offset: int, end: int, factory: PredicateFactory
    ) -> Tuple[Tuple[Any, ...], int]:
        values = []
        for item in self.items:
            value, offset = item.unpack(buf, offset, end, factory)
            values.append(value)
        return tuple(values), offset


STR = _Str(_U16, 0xFFFF, "str")
U32 = _Fixed(_U32, "u32", int)
FLAG = _Fixed(struct.Struct("!B"), "u8", bool)
PREDICATE = _Predicate(_U32, MAX_BODY_LENGTH, "predicate")
COUNTSET = _CountSet()


# ---------------------------------------------------------------------------
# the wire schema


@dataclass(frozen=True)
class Row:
    """One frame kind: everything the codec, the flight recorder and the
    session FSM know about it.

    ``fields`` is the body layout, in wire order; each name is also the
    keyword of ``cls``.  ``name`` is the label :func:`message_kind`
    gives spans, metrics and flight-recorder ``frame_tx``/``frame_rx``
    events.
    """

    type: int
    name: str
    cls: Type[Message]
    fields: Tuple[Tuple[str, Codec], ...]

    @property
    def event(self) -> str:
        """The session-FSM event a frame of this kind raises when it
        arrives (``repro.runtime.connection.SESSION_TRANSITIONS``)."""
        return "rx_" + self.name.lower()


#: The schema, by wire type (decoding) and by message class (encoding).
ROWS: Dict[int, Row] = {}
_ROW_OF: Dict[type, Row] = {}


def add_row(
    type_: int, name: str, cls: Type[Message], *fields: Tuple[str, Codec]
) -> Row:
    """Declare a frame kind.  This is all a new kind needs."""
    row = ROWS[type_] = _ROW_OF[cls] = Row(type_, name, cls, fields)
    return row


#: How the frames that travel along one DPVNet edge begin.
_EDGE = (("plan_id", STR), ("up_node", STR), ("down_node", STR))

add_row(TYPE_OPEN, "OPEN", OpenMessage, ("plan_id", STR), ("device", STR))
add_row(
    TYPE_KEEPALIVE, "KEEPALIVE", KeepaliveMessage,
    ("plan_id", STR), ("device", STR),
)
add_row(
    TYPE_UPDATE, "UPDATE", UpdateMessage, *_EDGE,
    ("withdrawn", Repeat(PREDICATE)),
    ("results", Repeat(Seq(PREDICATE, COUNTSET))),
)
add_row(
    TYPE_SUBSCRIBE, "SUBSCRIBE", SubscribeMessage, *_EDGE,
    ("original", PREDICATE), ("transformed", PREDICATE),
)
# LINKSTATE (5) is declared beside its message class, in repro.dvm.linkstate.


def message_kind(message: Message) -> str:
    """Short frame-kind label for span names and metric attributes."""
    return _ROW_OF[type(message)].name


def pack_fields(row: Row, message: Message) -> bytes:
    """The body of ``message``: its row's fields, in order."""
    out: List[bytes] = []
    for name, codec in row.fields:
        codec.pack(getattr(message, name), out)
    return b"".join(out)


def unpack_fields(
    row: Row, buf: Buffer, offset: int, end: int, factory: PredicateFactory
) -> Message:
    """The message whose body is exactly ``buf[offset:end]``."""
    values: Dict[str, Any] = {}
    for name, codec in row.fields:
        values[name], offset = codec.unpack(buf, offset, end, factory)
    if offset != end:
        raise MessageDecodeError(
            f"{end - offset} trailing bytes after message body"
        )
    return row.cls(**values)


def encode_message(message: Message) -> bytes:
    """Encode a message into one wire frame."""
    row = _ROW_OF.get(type(message))
    if row is None:
        raise TypeError(f"cannot encode {message!r}")
    if row.type == TYPE_LINKSTATE:
        # Reached through the module, at call time, once per frame:
        # benchmarks/perf counts floods (``dvm.linkstate.flood_frames``)
        # by patching this name in ``repro.dvm.linkstate``.
        from repro.dvm import linkstate

        body = linkstate.encode_linkstate_body(message)
    else:
        body = pack_fields(row, message)
    if len(body) > MAX_BODY_LENGTH:
        raise ValueError("encoded body exceeds MAX_BODY_LENGTH")
    clock = getattr(message, "clock", 0)
    return (
        _FRAME.pack(MAGIC, VERSION, row.type, clock & 0xFFFFFFFF, len(body))
        + body
    )


def _read_header(buf: Buffer, offset: int) -> Tuple[int, int, int]:
    """``(type, clock, end of frame)`` of the frame whose fixed header
    is at ``buf[offset:]``: the one place a header is validated."""
    magic, version, kind, clock, length = _FRAME.unpack_from(buf, offset)
    if magic != MAGIC:
        raise MessageDecodeError(f"bad magic 0x{magic:04X}")
    if version != VERSION:
        raise MessageDecodeError(f"unsupported version {version}")
    if length > MAX_BODY_LENGTH:
        raise MessageDecodeError(f"body length {length} exceeds maximum")
    return kind, clock, offset + _FRAME.size + length


def decode_message(payload: Buffer, factory: PredicateFactory) -> Message:
    """Decode one wire frame (predicates land in ``factory``)."""
    if len(payload) < _FRAME.size:
        raise MessageDecodeError("frame too short")
    kind, clock, end = _read_header(payload, 0)
    if end != len(payload):
        raise MessageDecodeError(
            f"frame length mismatch: header says {end - _FRAME.size} body "
            f"bytes, got {len(payload) - _FRAME.size}"
        )
    row = ROWS.get(kind)
    if row is None:
        raise MessageDecodeError(f"unknown message type {kind}")
    try:
        message = unpack_fields(row, payload, _FRAME.size, end, factory)
    except MessageDecodeError:
        raise
    except (struct.error, ValueError, IndexError, UnicodeDecodeError) as exc:
        # Bounds hold, but the body's contents are inconsistent (corrupt
        # BDD payload, broken UTF-8, ...).
        raise MessageDecodeError(f"malformed type-{kind} body: {exc}") from exc
    if clock:
        # The Lamport clock rides outside the frozen dataclass fields so
        # equality and hashing ignore *when* a message was sent.
        object.__setattr__(message, "clock", clock)
    return message


def decode_stream(
    buffer: bytes, factory: PredicateFactory
) -> Tuple[List["Message"], bytes]:
    """Incrementally decode ``buffer``: ``(messages, remainder)``.

    Decodes every complete frame at the head of ``buffer`` and returns
    the undecoded tail (a partial frame, or ``b""``).  A frame whose
    header is corrupt raises :class:`MessageDecodeError` immediately --
    the stream cannot be resynchronized past garbage, so transports
    should drop the connection.
    """
    messages: List[Message] = []
    view = memoryview(buffer)
    offset = 0
    total = len(buffer)
    while total - offset >= _FRAME.size:
        end = _read_header(view, offset)[2]
        if end > total:
            break  # partial frame: wait for more bytes
        messages.append(decode_message(view[offset:end], factory))
        offset = end
    return messages, buffer[offset:]
