"""Link-state flooding of failure scenes (paper §6).

When a verifier detects a local link failure (or recovery) it floods a
link-state advertisement to all physical neighbors, who re-flood unseen
advertisements -- a miniature OSPF-style synchronization (the paper cites
Open/R and OSPF).  Sequence numbers per origin device make flooding
idempotent and let recoveries supersede failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from repro.dvm.messages import (
    FLAG,
    STR,
    TYPE_LINKSTATE,
    U32,
    Message,
    Seq,
    add_row,
    pack_fields,
)


@dataclass(frozen=True)
class LinkStateMessage(Message):
    """One advertisement: ``link`` is ``up`` or down as seen by ``origin``."""

    origin: str
    sequence: int
    link: Tuple[str, str]
    up: bool


LINKSTATE = add_row(
    TYPE_LINKSTATE, "LINKSTATE", LinkStateMessage,
    ("plan_id", STR), ("origin", STR), ("sequence", U32),
    ("link", Seq(STR, STR)), ("up", FLAG),
)


def encode_linkstate_body(message: Message) -> bytes:
    return pack_fields(LINKSTATE, message)


class LinkStateDatabase:
    """Per-device view of failed links, fed by flooding."""

    def __init__(self) -> None:
        self._sequences: Dict[Tuple[str, Tuple[str, str]], int] = {}
        self._failed: Set[Tuple[str, str]] = set()

    @property
    def failed_links(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(self._failed)

    def is_failed(self, link: Tuple[str, str]) -> bool:
        return self._normalize(link) in self._failed

    def _normalize(self, link: Tuple[str, str]) -> Tuple[str, str]:
        a, b = link
        return (a, b) if a <= b else (b, a)

    def observe(self, message: LinkStateMessage) -> bool:
        """Apply an advertisement; True when it was new (re-flood it)."""
        link = self._normalize(message.link)
        key = (message.origin, link)
        last = self._sequences.get(key, -1)
        if message.sequence <= last:
            return False
        self._sequences[key] = message.sequence
        if message.up:
            self._failed.discard(link)
        else:
            self._failed.add(link)
        return True

    def local_event(
        self, plan_id: str, origin: str, link: Tuple[str, str], up: bool
    ) -> LinkStateMessage:
        """Record a locally observed link event and mint its advertisement."""
        normalized = self._normalize(link)
        key = (origin, normalized)
        sequence = self._sequences.get(key, -1) + 1
        message = LinkStateMessage(
            plan_id=plan_id,
            origin=origin,
            sequence=sequence,
            link=normalized,
            up=up,
        )
        self.observe(message)
        return message
