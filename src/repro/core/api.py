"""The Tulkun facade: specify -> plan -> deploy -> verify.

:class:`Tulkun` owns the predicate factory and topology and performs the
planner role; :class:`Deployment` wraps a network of on-device verifiers
on either backend and exposes verification, incremental updates and
fault injection.  Verification results come back as :class:`Report`
objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import InconsistentInvariantError, TulkunError
from repro.dataplane.fib import Fib
from repro.dvm.agent import AgentBackend, Unplanned, plan_holds
from repro.dvm.verifier import RootVerdict, Violation
from repro.obs.flight import describe_unplanned
from repro.packetspace.fields import DEFAULT_LAYOUT
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.planner import Plan, plan_invariant, plan_invariants
from repro.simulator.network import SimulatedNetwork
from repro.spec.ast import Invariant
from repro.spec.parser import parse_invariant
from repro.topology.graph import Topology


@dataclass
class Report:
    """The outcome of verifying one invariant.

    Every report of one install (``verify_all``; ``verify`` and
    ``verify_plan`` are installs of one) carries that install's
    ``verification_seconds``, ``message_count`` and ``message_bytes``:
    the convergence time and the counting frames and wire bytes sent
    for the whole batch.  A read-back (``reports``) carries zeros.
    """

    plan_id: str
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


class Tulkun:
    """Planner-side entry point bound to one topology."""

    def __init__(
        self,
        topology: Topology,
        factory: Optional[PredicateFactory] = None,
    ) -> None:
        """``factory`` is the predicate space every invariant, FIB and
        verifier of this topology shares (default: a fresh one over
        :data:`~repro.packetspace.fields.DEFAULT_LAYOUT`)."""
        self.topology = topology
        self.factory = (
            factory if factory is not None else PredicateFactory(DEFAULT_LAYOUT)
        )
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
        self, fibs: Dict[str, Fib], backend: str = "sim", **options: Any
    ) -> "Deployment":
        """Create on-device verifiers over ``fibs``.

        ``backend="sim"`` (default) runs them in the discrete-event
        simulator; ``backend="runtime"`` deploys them as concurrent
        asyncio agents over real localhost TCP sockets (testbed mode,
        §9.2).  ``options`` go to the backend built:
        :class:`~repro.simulator.network.SimulatedNetwork`'s
        (``profile``, ``strict_wire``, ...) or
        :class:`~repro.runtime.cluster.RuntimeCluster`'s
        (``keepalive_interval``, ``backoff``, ...); one the backend does
        not take raises ``TypeError``.  Runtime deployments hold sockets
        and a background thread: close them (``with`` statement or
        ``.close()``) when done.

        Both take ``flight`` and ``flight_capacity``: the per-device
        flight recorders (default off in the simulator, on in the
        runtime) and their ring size.  ``deployment.flight_dump()`` is
        the causal event log and :func:`repro.obs.records_from_flight`
        its trace, see ``docs/OBSERVABILITY.md``.
        """
        missing = [d for d in self.topology.devices if d not in fibs]
        if missing:
            raise TulkunError(f"missing FIBs for devices: {missing}")
        if backend == "runtime":
            from repro.runtime.deployment import RuntimeDeployment

            return RuntimeDeployment(self, fibs, **options)
        if backend != "sim":
            raise TulkunError(
                f"unknown backend {backend!r} (expected 'sim' or 'runtime')"
            )
        network = SimulatedNetwork(self.topology, fibs, self.factory, **options)
        return Deployment(self, network)


class Deployment:
    """A running network of on-device verifiers over one backend.

    Every backend call goes through :meth:`_call`: here it runs the
    operation directly (the simulator);
    :class:`~repro.runtime.deployment.RuntimeDeployment` runs it on the
    runtime's event-loop thread.
    """

    def __init__(self, tulkun: Tulkun, backend: AgentBackend) -> None:
        self.tulkun = tulkun
        self.backend = backend
        self.plans: Dict[str, Plan] = {}

    def _call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """Run one backend operation (in the caller's thread)."""
        return operation(*args)

    def close(self) -> None:
        """No-op; the runtime backend releases its sockets and thread."""

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- verification ----------------------------------------------------------

    def verify(self, invariant: Invariant) -> Report:
        """Plan, distribute and verify one invariant to convergence."""
        return self.verify_all([invariant])[0]

    def verify_all(self, invariants: Sequence[Invariant]) -> List[Report]:
        """Plan ``invariants`` as one set and verify them as one install:
        plans that share a DPVNet install as one group (§4.3).  Reports
        come in input order, under consecutive plan ids."""
        plans = plan_invariants(invariants, self.tulkun.topology)
        return self.install(
            {f"plan-{next(self.tulkun._plan_ids)}": plan for plan in plans}
        )

    def verify_plan(self, plan: Plan) -> Report:
        return self.install({f"plan-{next(self.tulkun._plan_ids)}": plan})[0]

    def install(self, plans: Dict[str, Plan]) -> List[Report]:
        """Install ``plans`` under their own ids as one batch and verify
        them to convergence; one report per plan, in ``plans`` order.
        Installing under an id already installed replaces that plan."""
        self.plans.update(plans)
        frames, nbytes = self.frames_sent()
        elapsed = self._call(self.backend.install_plans, plans)
        frames_now, bytes_now = self.frames_sent()
        return [
            self._report(
                plan_id, elapsed, frames_now - frames, bytes_now - nbytes
            )
            for plan_id in plans
        ]

    def reports(self, plan_id: Optional[str] = None) -> List[Report]:
        """Current verdicts of ``plan_id``, or of every installed plan
        (no new computation)."""
        return [
            self._report(identifier, 0.0, 0, 0)
            for identifier in ([plan_id] if plan_id else self.plans)
        ]

    def _report(
        self, plan_id: str, elapsed: float, frames: int, nbytes: int
    ) -> Report:
        plan = self.plans[plan_id]
        verdicts, violations, unplanned = self._call(
            self.backend.read_out, plan_id
        )
        return Report(
            plan_id=plan_id,
            invariant=plan.invariant,
            holds=plan_holds(plan, verdicts, violations, unplanned),
            verdicts=verdicts,
            violations=violations,
            unplanned=unplanned,
            verification_seconds=elapsed,
            message_count=frames,
            message_bytes=nbytes,
        )

    def holds(self, plan_id: str) -> bool:
        return self._call(self.backend.holds, plan_id)

    def frames_sent(self) -> Tuple[int, int]:
        """Counting frames and their wire bytes sent so far, all
        devices."""
        return self._call(self.backend.frames_sent)

    # -- dynamics -----------------------------------------------------------------

    def update_rule(self, device: str, mutate: Callable[[], None]) -> float:
        """Apply a rule update and return the incremental verification time."""
        return self._call(self.backend.fib_update, device, mutate)

    def fail_link(self, a: str, b: str) -> float:
        return self._call(self.backend.fail_link, a, b)

    def recover_link(self, a: str, b: str) -> float:
        return self._call(self.backend.recover_link, a, b)

    def flight_dump(self) -> Dict[str, Dict[str, object]]:
        """Per-device flight-recorder dumps (see ``repro.obs.flight``)."""
        return self._call(self.backend.flight_dump)
