"""Span causality across a simulated network, read from the trace the
flight dumps derive (``records_from_flight``)."""

from repro.core import Tulkun
from repro.dataplane.routes import RouteConfig, install_routes
from repro.obs.export import validate_records
from repro.obs.flight import records_from_flight
from repro.obs.trace import CAT_OP, CAT_SIM, KIND_SPAN
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory
from repro.topology.generators import paper_example


class TestSimulatorCausality:
    """One verification session on the paper's Figure 2a network must
    trace as a causally-linked propagation wave."""

    def trace_install(self):
        tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
        fibs = install_routes(
            tulkun.topology, tulkun.factory, RouteConfig(ecmp="any")
        )
        deployment = tulkun.deploy(fibs, flight=True)
        invariant = tulkun.parse(
            "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*D and loop_free, "
            "(<= shortest+2)))",
            name="reach",
        )
        report = deployment.verify(invariant)
        return records_from_flight(deployment.flight_dump()), report

    def test_trace_is_schema_valid(self):
        records, _ = self.trace_install()
        assert records, "a verification derived no trace records"
        assert validate_records(records) == []

    def test_operation_span_brackets_the_wave(self):
        records, report = self.trace_install()
        ops = [record for record in records if record.cat == CAT_OP]
        assert len(ops) == 1
        op = ops[0]
        assert op.name.startswith("install_plans:")
        assert op.attrs["convergence_seconds"] == report.verification_seconds
        # Every record belongs to this verification session.
        assert {record.trace_id for record in records} == {op.trace_id}
        # Quiescence is an instant parented to the operation span.
        quiescence = [r for r in records if r.name == "quiescence"]
        assert len(quiescence) == 1
        assert quiescence[0].parent_id == op.span_id
        # The injected steps are the operation's children.
        installs = [r for r in records if r.name == "install_plan"]
        assert installs
        assert {r.parent_id for r in installs} == {op.span_id}
        # Timestamps are simulation seconds: the wave sits inside the op.
        for record in records:
            if record.kind == KIND_SPAN and record.cat == CAT_SIM:
                assert record.start >= op.start
                assert record.end <= op.end + 1e-9

    def test_recv_spans_link_across_devices(self):
        records, _ = self.trace_install()
        by_id = {record.span_id: record for record in records}
        recv_updates = [
            record for record in records if record.name == "recv UPDATE"
        ]
        assert recv_updates, "no UPDATE deliveries were traced"
        cross_device = [
            record
            for record in recv_updates
            if record.parent_id in by_id
            and by_id[record.parent_id].device
            and by_id[record.parent_id].device != record.device
        ]
        assert cross_device == recv_updates

        def wave_devices(record):
            devices = []
            while record is not None:
                if record.device and record.device not in devices:
                    devices.append(record.device)
                record = by_id.get(record.parent_id)
            return devices

        # The counting wave must propagate through at least a 3-device
        # chain (the diameter-not-size picture of the paper).
        longest = max(len(wave_devices(record)) for record in recv_updates)
        assert longest >= 3
