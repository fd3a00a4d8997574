"""The Tulkun facade: specify -> plan -> deploy -> verify.

:class:`Tulkun` owns the predicate factory and topology and performs the
planner role; :class:`Deployment` wraps a simulated network of on-device
verifiers and exposes verification, incremental updates and fault
injection.  Verification results come back as :class:`Report` objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import InconsistentInvariantError, TulkunError
from repro.dataplane.fib import Fib
from repro.dvm.agent import Unplanned, plan_holds
from repro.dvm.verifier import RootVerdict, Violation
from repro.obs.flight import describe_unplanned
from repro.packetspace.fields import DEFAULT_LAYOUT, HeaderLayout
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.planner import Plan, PlannerError, plan_invariant
from repro.simulator.network import DeviceProfile, SimulatedNetwork
from repro.spec.ast import Invariant
from repro.spec.parser import parse_invariant
from repro.topology.graph import Topology


@dataclass
class Report:
    """The outcome of verifying one invariant."""

    invariant: Invariant
    holds: bool
    verdicts: List[RootVerdict]
    violations: List[Violation]
    #: ``device -> failed links`` of devices whose failures match no
    #: planned fault scene; the verdicts are then stale and ``holds`` is
    #: False.
    unplanned: Unplanned
    verification_seconds: float
    message_count: int
    message_bytes: int

    def failing_regions(self) -> List[RootVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.holds]

    def __repr__(self) -> str:
        status = "HOLDS" if self.holds else "VIOLATED"
        if self.unplanned:
            status = describe_unplanned(
                {
                    device: [f"{a}-{b}" for a, b in failed]
                    for device, failed in self.unplanned.items()
                }
            )
        return (
            f"Report({self.invariant.name!r}: {status}, "
            f"{self.verification_seconds * 1e3:.3f} ms to converge, "
            f"{self.message_count} msgs)"
        )


def make_report(
    plan: Plan,
    verdicts: List[RootVerdict],
    violations: List[Violation],
    unplanned: Unplanned,
    elapsed: float,
    message_count: int,
    message_bytes: int,
) -> Report:
    """A backend's read-out of one plan as a :class:`Report`."""
    return Report(
        invariant=plan.invariant,
        holds=plan_holds(plan, verdicts, violations, unplanned),
        verdicts=verdicts,
        violations=violations,
        unplanned=unplanned,
        verification_seconds=elapsed,
        message_count=message_count,
        message_bytes=message_bytes,
    )


class Tulkun:
    """Planner-side entry point bound to one topology."""

    def __init__(
        self,
        topology: Topology,
        layout: HeaderLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.topology = topology
        self.factory = PredicateFactory(layout)
        self._plan_ids = itertools.count(1)

    # -- specification ------------------------------------------------------

    def parse(self, source: str, name: str = "invariant") -> Invariant:
        """Parse the textual invariant language (§3)."""
        invariant = parse_invariant(source, self.factory, name)
        self.check_consistency(invariant)
        return invariant

    def check_consistency(self, invariant: Invariant) -> None:
        """§3's convenience check: destination devices named by the path
        expressions must own prefixes overlapping the packet space.

        Only meaningful when the topology has external prefixes attached;
        silently passes otherwise.
        """
        owners = self.topology.devices_with_prefixes()
        if not owners:
            return
        space = invariant.packet_space
        reachable_space = self.factory.empty()
        for device in owners:
            for cidr in self.topology.external_prefixes(device):
                reachable_space = reachable_space | self.factory.dst_prefix(cidr)
        if not space.is_subset_of(reachable_space) and not space.is_full:
            raise InconsistentInvariantError(
                f"invariant {invariant.name!r}: packet space includes "
                "destinations no device's external prefix covers"
            )

    # -- planning -----------------------------------------------------------

    def plan(self, invariant: Invariant) -> Plan:
        """Build the DPVNet and decompose into on-device tasks (§4)."""
        return plan_invariant(invariant, self.topology)

    # -- deployment -----------------------------------------------------------

    def deploy(
        self,
        fibs: Dict[str, Fib],
        profile: DeviceProfile = DeviceProfile(),
        profiles: Optional[Dict[str, DeviceProfile]] = None,
        strict_wire: bool = False,
        backend: str = "sim",
        flight: Optional[bool] = None,
        **runtime_options,
    ) -> "Deployment":
        """Create on-device verifiers over ``fibs``.

        ``backend="sim"`` (default) runs them in the discrete-event
        simulator; ``backend="runtime"`` deploys them as concurrent
        asyncio agents over real localhost TCP sockets (testbed mode,
        §9.2) and accepts :class:`~repro.runtime.cluster.RuntimeCluster`
        keyword options (``keepalive_interval``, ``backoff``, ...).
        Runtime deployments hold sockets and a background thread: close
        them (``with`` statement or ``.close()``) when done.

        ``flight`` switches the per-device flight recorders on or off
        (default: the backend's own -- off in the simulator, on in the
        runtime); ``deployment.flight_dump()`` is the causal event log
        and :func:`repro.obs.records_from_flight` its trace, see
        ``docs/OBSERVABILITY.md``.
        """
        missing = [d for d in self.topology.devices if d not in fibs]
        if missing:
            raise TulkunError(f"missing FIBs for devices: {missing}")
        if backend == "runtime":
            from repro.runtime.deployment import RuntimeDeployment

            if flight is not None:
                runtime_options["flight"] = flight
            return RuntimeDeployment(self, fibs, **runtime_options)
        if backend != "sim":
            raise TulkunError(
                f"unknown backend {backend!r} (expected 'sim' or 'runtime')"
            )
        if runtime_options:
            raise TulkunError(
                "runtime options "
                f"{sorted(runtime_options)} require backend='runtime'"
            )
        network = SimulatedNetwork(
            self.topology,
            fibs,
            self.factory,
            profile=profile,
            profiles=profiles,
            strict_wire=strict_wire,
            flight=bool(flight),
        )
        return Deployment(self, network)


class Deployment:
    """A running (simulated) network of on-device verifiers."""

    def __init__(self, tulkun: Tulkun, network: SimulatedNetwork) -> None:
        self.tulkun = tulkun
        self.network = network
        self.plans: Dict[str, Plan] = {}

    def close(self) -> None:
        """No-op; API parity with the runtime backend (which holds
        sockets and a loop thread that must be released)."""

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- verification ----------------------------------------------------------

    def verify(self, invariant: Invariant) -> Report:
        """Plan, distribute and verify one invariant to convergence."""
        plan = self.tulkun.plan(invariant)
        return self.verify_plan(plan)

    def verify_plan(self, plan: Plan) -> Report:
        plan_id = f"plan-{next(self.tulkun._plan_ids)}"
        self.plans[plan_id] = plan
        messages_before = self.network.stats.messages
        bytes_before = self.network.stats.bytes
        elapsed = self.network.install_plan(plan_id, plan)
        return self._report(plan_id, plan, elapsed, messages_before, bytes_before)

    def reverify(self, plan_id: Optional[str] = None) -> List[Report]:
        """Current verdicts of installed plans (no new computation)."""
        selected = (
            {plan_id: self.plans[plan_id]} if plan_id else dict(self.plans)
        )
        return [
            self._report(identifier, plan, 0.0,
                         self.network.stats.messages, self.network.stats.bytes)
            for identifier, plan in selected.items()
        ]

    def _report(
        self,
        plan_id: str,
        plan: Plan,
        elapsed: float,
        messages_before: int,
        bytes_before: int,
    ) -> Report:
        return make_report(
            plan,
            *self.network.read_out(plan_id),
            elapsed,
            self.network.stats.messages - messages_before,
            self.network.stats.bytes - bytes_before,
        )

    # -- dynamics -----------------------------------------------------------------

    def update_rule(self, device: str, mutate: Callable[[], None]) -> float:
        """Apply a rule update and return the incremental verification time."""
        return self.network.fib_update(device, mutate)

    def fail_link(self, a: str, b: str) -> float:
        return self.network.fail_link(a, b)

    def recover_link(self, a: str, b: str) -> float:
        return self.network.recover_link(a, b)

    def reports(self) -> List[Report]:
        return self.reverify()

    def holds(self, plan_id: str) -> bool:
        return self.network.holds(plan_id)

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Per-device flight-recorder dumps (see ``repro.obs.flight``)."""
        return self.network.flight_dump()
