"""On-device microbenchmarks (paper §9.4, Figures 14 and 15).

Measures, per device:

* initialization overhead -- time and peak memory to compute the initial
  LEC table and CIBs from a burst of rules (Fig. 14), the plans installed
  in the groups a backend would install them in;
* DVM UPDATE processing overhead -- replaying each device's received
  UPDATE trace and measuring per-message time, total time and peak
  memory (Fig. 15).

Each device is measured once, on this host; a switch model's reading is
that one reading times the model's CPU scale factor
(:data:`repro.simulator.network.SWITCH_PROFILES`), so every model sees
the same cache state.  Memory is measured with :mod:`tracemalloc` on the
real data structures and is the same on every model.
"""

from __future__ import annotations

import time as _time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.workloads import Workload
from repro.dvm.agent import group_plans
from repro.dvm.messages import Message, UpdateMessage
from repro.dvm.verifier import OnDeviceVerifier
from repro.planner.tasks import Plan
from repro.simulator.network import SWITCH_PROFILES, DeviceProfile, SimulatedNetwork


@dataclass
class DeviceOverhead:
    """One device's measured overhead on one switch model."""

    device: str
    model: str
    total_seconds: float
    peak_memory_bytes: int
    cpu_load: float
    per_message_seconds: List[float] = field(default_factory=list)


def measure_initialization(
    workload: Workload,
    profiles: Sequence[DeviceProfile] = SWITCH_PROFILES,
    max_devices: int = 0,
) -> List[DeviceOverhead]:
    """Fig. 14: per-device LEC+CIB initialization cost per switch model.

    CPU load is modeled as single-core busy time over wall time (the
    verifier is single-threaded per §8's dispatcher design, so load on an
    N-core switch CPU is 1/N during initialization; commodity switch CPUs
    in the paper have 2-4 cores -- we report 1/2, matching the paper's
    <= 0.48 observation).
    """
    devices = list(workload.topology.devices)
    if max_devices:
        devices = devices[:max_devices]
    results: List[DeviceOverhead] = []
    for device in devices:
        tracemalloc.start()
        start = _time.perf_counter()
        verifier = OnDeviceVerifier(
            device,
            workload.factory,
            workload.fibs[device],
            workload.topology.neighbors(device),
        )
        for group in group_plans(dict(workload.plans)):
            verifier.install_plan(group.plan_id, group.plan)
        elapsed = _time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        results.extend(
            DeviceOverhead(
                device=device,
                model=profile.name,
                total_seconds=elapsed * profile.cpu_scale,
                peak_memory_bytes=peak,
                cpu_load=0.5,
            )
            for profile in profiles
        )
    return results


def collect_update_traces(workload: Workload) -> Dict[str, List[Message]]:
    """Run the workload in the simulator recording each device's received
    UPDATE messages (the Fig. 15 replay traces)."""
    traces: Dict[str, List[Message]] = {
        device: [] for device in workload.topology.devices
    }
    network = SimulatedNetwork(
        workload.topology, workload.fibs, workload.factory
    )
    for device, verifier in network.verifiers.items():

        def recording(message, handle=verifier.on_message, trace=traces[device]):
            if isinstance(message, UpdateMessage):
                trace.append(message)
            return handle(message)

        verifier.on_message = recording
    network.install_plans(dict(workload.plans))
    return traces


def measure_update_processing(
    workload: Workload,
    traces: Dict[str, List[Message]],
    profiles: Sequence[DeviceProfile] = SWITCH_PROFILES,
    max_devices: int = 0,
) -> List[DeviceOverhead]:
    """Fig. 15: replay each device's UPDATE trace, measure per message."""
    devices = [device for device, trace in traces.items() if trace]
    if max_devices:
        devices = devices[:max_devices]
    results: List[DeviceOverhead] = []
    for device in devices:
        verifier = OnDeviceVerifier(
            device,
            workload.factory,
            workload.fibs[device],
            workload.topology.neighbors(device),
        )
        for group in group_plans(dict(workload.plans)):
            verifier.install_plan(group.plan_id, group.plan)
        tracemalloc.start()
        per_message: List[float] = []
        for message in traces[device]:
            start = _time.perf_counter()
            verifier.on_message(message)
            per_message.append(_time.perf_counter() - start)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        for profile in profiles:
            scaled = [seconds * profile.cpu_scale for seconds in per_message]
            results.append(
                DeviceOverhead(
                    device=device,
                    model=profile.name,
                    total_seconds=sum(scaled),
                    peak_memory_bytes=peak,
                    cpu_load=0.5,
                    per_message_seconds=scaled,
                )
            )
    return results
