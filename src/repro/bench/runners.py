"""Benchmark runners: drive the centralized baselines over a workload.

A centralized baseline's time is simulated collection latency + measured
compute wall time, per §9.3.1's methodology.  Tulkun itself runs through
its facade (``Tulkun(workload.topology, workload.factory).deploy(...)``
and ``Deployment.install``), whose simulator reports simulation time
(real per-event compute + simulated propagation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Type

from repro.baselines.base import CentralizedVerifier
from repro.baselines.collection import CollectionModel
from repro.bench.workloads import RuleUpdate, Workload


@dataclass
class BaselineTiming:
    """Timings of one centralized baseline over a workload."""

    name: str = ""
    burst_seconds: float = 0.0
    incremental_seconds: List[float] = field(default_factory=list)
    verifier: Optional[CentralizedVerifier] = None
    collection: Optional[CollectionModel] = None


def run_baseline_burst(
    verifier_cls: Type[CentralizedVerifier],
    workload: Workload,
    collection: Optional[CollectionModel] = None,
) -> BaselineTiming:
    """Snapshot + verify with collection latency added."""
    collection = collection or CollectionModel(workload.topology)
    verifier = verifier_cls(workload.factory)
    load = verifier.load_snapshot(workload.fibs)
    result = verifier.verify(workload.plans)
    return BaselineTiming(
        name=verifier_cls.name,
        burst_seconds=(
            collection.burst_collection_latency()
            + load.compute_seconds
            + result.compute_seconds
        ),
        verifier=verifier,
        collection=collection,
    )


def run_baseline_incremental(
    workload: Workload,
    updates: Sequence[RuleUpdate],
    verifier: CentralizedVerifier,
    collection: CollectionModel,
) -> BaselineTiming:
    """Per-update: one-way latency to the verifier + incremental compute."""
    timing = BaselineTiming(
        name=verifier.name, verifier=verifier, collection=collection
    )
    for update in updates:
        update.apply()
        result = verifier.apply_update(update.device, workload.plans)
        timing.incremental_seconds.append(
            collection.update_latency(update.device) + result.compute_seconds
        )
    return timing


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``: the value of nearest rank
    ``ceil(q * n)``, the first rank at least ``q`` of the values reach.

    ``q`` is taken in parts per million so the product is an exact
    integer: in floats, ``0.07 * 100`` is ``7.000000000000001`` and its
    ceiling would skip a rank.
    """
    if not values:
        raise ValueError("quantile of empty sequence")
    ordered = sorted(values)
    rank = -(-round(q * 1_000_000) * len(ordered) // 1_000_000)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold``."""
    if not values:
        return 0.0
    return sum(1 for value in values if value < threshold) / len(values)
