"""Benchmark runners: drive Tulkun and the baselines over a workload.

Tulkun runs inside the event-driven simulator, so its verification time
is simulation time (real per-event compute + simulated propagation).
A centralized baseline's time is simulated collection latency + measured
compute wall time, per §9.3.1's methodology.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.baselines.base import CentralizedVerifier
from repro.baselines.collection import CollectionModel
from repro.bench.workloads import RuleUpdate, Workload
from repro.simulator.network import SimulatedNetwork


@dataclass
class TulkunTiming:
    """Timings of one Tulkun run over a workload."""

    burst_seconds: float = 0.0
    incremental_seconds: List[float] = field(default_factory=list)
    messages: int = 0
    bytes: int = 0
    network: Optional[SimulatedNetwork] = None


@dataclass
class BaselineTiming:
    """Timings of one centralized baseline over a workload."""

    name: str = ""
    burst_seconds: float = 0.0
    incremental_seconds: List[float] = field(default_factory=list)
    verifier: Optional[CentralizedVerifier] = None
    collection: Optional[CollectionModel] = None


def run_tulkun_burst(workload: Workload, flight: bool = False) -> TulkunTiming:
    """Burst update: plans distributed, then all devices count at once."""
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory, flight=flight
    )
    elapsed = network.install_plans(dict(workload.plans))
    return TulkunTiming(
        burst_seconds=elapsed,
        messages=network.stats.messages,
        bytes=network.stats.bytes,
        network=network,
    )


def run_tulkun_incremental(
    workload: Workload,
    updates: Sequence[RuleUpdate],
    network: Optional[SimulatedNetwork] = None,
) -> TulkunTiming:
    """Apply updates one by one; records per-update convergence times."""
    timing = TulkunTiming()
    if network is None:
        burst = run_tulkun_burst(workload)
        network = burst.network
        timing.burst_seconds = burst.burst_seconds
    for update in updates:
        elapsed = network.fib_update(update.device, update.apply)
        timing.incremental_seconds.append(elapsed)
    timing.messages = network.stats.messages
    timing.bytes = network.stats.bytes
    timing.network = network
    return timing


@dataclass
class RuntimeTiming:
    """Timings of one runtime (testbed-mode) run over a workload.

    Unlike :class:`TulkunTiming`, convergence times here are *real wall
    clock* over real localhost TCP sockets, and message/byte counts are
    frames actually written to the wire.
    """

    burst_seconds: float = 0.0
    incremental_seconds: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    messages: int = 0
    bytes: int = 0
    holds: Dict[str, bool] = field(default_factory=dict)
    verdicts: Dict[str, list] = field(default_factory=dict)
    metrics: Optional[object] = None  # repro.runtime.ClusterMetrics
    #: Per-device flight dumps (captured before the cluster stops).
    flight: Optional[Dict[str, dict]] = None


def run_runtime_burst(
    workload: Workload,
    updates: Sequence[RuleUpdate] = (),
    **cluster_options,
) -> RuntimeTiming:
    """Burst + incremental updates on the asyncio/TCP runtime backend.

    The runtime counterpart of :func:`run_tulkun_burst` followed by
    :func:`run_tulkun_incremental`: boots one verifier agent per device
    over localhost TCP, installs every plan as one burst, then applies
    ``updates`` one at a time, recording per-operation convergence.
    """
    import asyncio

    from repro.runtime.cluster import RuntimeCluster

    async def drive() -> RuntimeTiming:
        cluster = RuntimeCluster(
            workload.topology,
            workload.fibs,
            workload.factory,
            **cluster_options,
        )
        await cluster.start()
        try:
            timing = RuntimeTiming()
            timing.burst_seconds = await cluster.install_plans(
                dict(workload.plans)
            )
            for update in updates:
                timing.incremental_seconds.append(
                    await cluster.fib_update(update.device, update.apply)
                )
            for plan_id, _ in workload.plans:
                timing.holds[plan_id] = cluster.holds(plan_id)
                timing.verdicts[plan_id] = cluster.verdicts(plan_id)
            timing.messages = cluster.metrics.total_messages
            timing.bytes = cluster.metrics.total_bytes
            timing.metrics = cluster.metrics
            if cluster.flight:
                timing.flight = cluster.flight_dump()
            return timing
        finally:
            await cluster.stop()

    start = _time.perf_counter()
    timing = asyncio.run(drive())
    timing.wall_seconds = _time.perf_counter() - start
    return timing


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
