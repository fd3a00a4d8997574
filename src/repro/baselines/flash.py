"""Flash [Guo et al., SIGCOMM'22]: batched class computation.

Flash's core idea is *consistent batch verification*: massive rule
arrivals are processed as one batch, and identical predicates across
devices are deduplicated before refinement ("MR2 merging"), which makes
burst verification far cheaper than AP's per-rule refinement.  Single
rule updates gain nothing (a batch of one), matching the paper's
observation that Flash is slow in incremental verification."""

from __future__ import annotations

from typing import Iterable, List

from repro.baselines.ap import refine_partition
from repro.baselines.base import CentralizedVerifier
from repro.packetspace.predicate import Predicate


class FlashVerifier(CentralizedVerifier):
    """Batched atomic-predicate computation with predicate deduplication."""

    name = "Flash"

    def __init__(self, factory) -> None:
        super().__init__(factory)
        self._classes: List[Predicate] = []

    def _build_classes(self) -> None:
        # Deduplicate predicates across all devices before refining: the
        # batch-processing advantage (identical prefixes appear on every
        # device, so this collapses |devices| x |prefixes| refinements
        # into |distinct prefixes|).
        distinct = {}
        for table in self.lec_tables.values():
            for entry in table.entries:
                distinct[entry.predicate.node] = entry.predicate
        partition = [self.factory.all_packets()]
        for predicate in distinct.values():
            partition = refine_partition(partition, predicate)
        self._classes = partition

    def num_classes(self) -> int:
        return len(self._classes)

    def classes_overlapping(self, region: Predicate) -> Iterable[Predicate]:
        for ec in self._classes:
            overlap = ec & region
            if not overlap.is_empty:
                yield overlap

    def _update_classes(self, device: str, region: Predicate) -> None:
        # A batch of one: same machinery, no amortization.
        self._build_classes()

    def _recheck_region(self, region: Predicate):
        return region
