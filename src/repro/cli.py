"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      -- run the Figure 2 walkthrough (violation, fix, re-verify).
* ``datasets``  -- print the Figure 10 dataset statistics table.
* ``verify``    -- verify an invariant on a built-in dataset or a JSON
  topology + data plane (see :mod:`repro.io` for the formats).
* ``testbed``   -- boot a dataset on the asyncio/TCP runtime backend
  (one verifier agent per device over real localhost sockets), verify
  reachability, inject a rule update, a link failure and a forced
  connection drop, and print per-device traffic metrics.
* ``trace``     -- derive the span trace of flight-recorder dumps (the
  files given, or one burst run here on either backend) and export it
  (JSONL + Chrome-trace spans; the run's metrics in JSON and Prometheus
  text form); see ``docs/OBSERVABILITY.md``.
* ``top``       -- read every agent's ``/healthz`` status record in a
  running fleet (testbed or fleet agents) and render a refreshing
  per-device table (``--once --json`` for scripting).
* ``fleet``     -- launch a sharded multi-process fleet (one worker
  process per shard of device agents, wired over real localhost TCP),
  run the fleet workload to convergence, optionally diff the verdicts
  against the simulator backend, and scrape the whole fleet's
  telemetry; see ``docs/RUNTIME.md`` ("Fleet mode").
* ``explain``   -- verdict forensics over flight-recorder dumps: merge
  per-device rings into one causally-ordered log and reconstruct the
  causal chain from the triggering update to a device's verdict flip
  (``--timeline`` for the full convergence view); reads a dump file
  (``/debug/flight``, ``dump_flight``, or ``fleet --flight-out``
  output) or generates a violation scenario on either backend; see
  ``docs/OBSERVABILITY.md``.
* ``lint``      -- analyze the codebase in one pass: per-file hygiene
  rules and the whole-program async-safety rules over its call graph;
  see :mod:`repro.checkers` and ``docs/STATIC_ANALYSIS.md``.

Examples::

    python -m repro demo
    python -m repro datasets
    python -m repro lint src/ --stats
    python -m repro verify --dataset INet2 \
        --invariant "(dstIP = 10.0.0.0/24, [INet2-r1], \
                      (exist >= 1, INet2-r1.*INet2-r0 and loop_free))"
    python -m repro verify --topology net.json --fibs rules.json \
        --invariant "(*, [S], (exist >= 1, S.*D))"
    python -m repro testbed --dataset inet2 --json --out results.json
    python -m repro testbed --http-base-port 9600 --linger 600
    python -m repro fleet --topology ft4 --workers 2 --check-simulator
    python -m repro fleet --topology ft16h8 --workers 16 --json
    python -m repro top 127.0.0.1:9600 127.0.0.1:9601 --once --json
    python -m repro trace --dataset inet2 --backend simulator --out trace-out
    python -m repro explain --dataset INet2 --backend simulator
    python -m repro explain flight.json --device INet2-r1 --timeline
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core import Tulkun
from repro.dataplane.routes import RouteConfig, install_routes
from repro.packetspace.fields import DSTIP_ONLY_LAYOUT
from repro.packetspace.predicate import PredicateFactory


def _resolve_dataset(name: str) -> str:
    """Map a dataset name to its canonical spelling (case-insensitive)."""
    from repro.topology.datasets import DATASETS

    if name in DATASETS:
        return name
    lowered = {key.lower(): key for key in DATASETS}
    if name.lower() in lowered:
        return lowered[name.lower()]
    raise KeyError(
        f"unknown dataset {name!r}; known: {sorted(DATASETS)}"
    )


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro.dataplane.actions import Forward
    from repro.dataplane.routes import PRIORITY_ERROR
    from repro.topology.generators import paper_example

    tulkun = Tulkun(paper_example(), PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(tulkun.topology, tulkun.factory, RouteConfig(ecmp="any"))
    deployment = tulkun.deploy(fibs)
    invariant = tulkun.parse(
        "(dstIP = 10.0.0.0/23, [S], (exist >= 1, S.*W.*D and loop_free))",
        name="waypoint-via-W",
    )
    report = deployment.verify(invariant)
    print(f"initial: {report}")
    packets = tulkun.factory.dst_prefix("10.0.0.0/23")
    seconds = deployment.update_rule(
        "A",
        lambda: fibs["A"].insert(PRIORITY_ERROR, packets, Forward(["W"])),
    )
    print(f"applied fix at A; incremental verification {seconds * 1e3:.3f} ms")
    print(f"final: {deployment.reports()[0]}")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.bench.reporting import print_table
    from repro.topology.datasets import dataset_statistics

    print_table("Figure 10: dataset statistics", dataset_statistics())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.dataset and args.topology:
        print("use either --dataset or --topology, not both", file=sys.stderr)
        return 2
    if args.dataset:
        from repro.topology.datasets import load_dataset

        try:
            topology = load_dataset(_resolve_dataset(args.dataset))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        tulkun = Tulkun(topology, PredicateFactory(DSTIP_ONLY_LAYOUT))
        fibs = install_routes(
            topology, tulkun.factory, RouteConfig(ecmp=args.ecmp)
        )
    elif args.topology:
        from repro.io import load_fibs, load_topology

        topology = load_topology(args.topology)
        tulkun = Tulkun(topology)
        if not args.fibs:
            print("--topology requires --fibs", file=sys.stderr)
            return 2
        fibs = load_fibs(args.fibs, tulkun.factory, topology)
    else:
        print("need --dataset or --topology", file=sys.stderr)
        return 2

    deployment = tulkun.deploy(fibs)
    invariant = tulkun.parse(args.invariant, name="cli")
    report = deployment.verify(invariant)
    print(report)
    for verdict in report.failing_regions():
        print(
            f"  VIOLATED at ingress {verdict.ingress}: delivery counts "
            f"{sorted(verdict.counts.tuples)}"
        )
    for violation in report.violations:
        print(f"  {violation.device}/{violation.node_id}: {violation.reason}")
    return 0 if report.holds else 1


def _cmd_testbed(args: argparse.Namespace) -> int:
    """Boot a dataset on the runtime backend and exercise its dynamics."""
    from repro.bench.reporting import print_table, render_json
    from repro.bench.workloads import reachability_invariant
    from repro.topology.datasets import load_dataset

    try:
        name = _resolve_dataset(args.dataset)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.destinations < 1:
        print("--destinations must be at least 1", file=sys.stderr)
        return 2

    def say(text: str) -> None:
        # --json keeps stdout a single machine-readable document.
        if not args.json:
            print(text)

    topology = load_dataset(name, scale=args.scale)
    tulkun = Tulkun(topology, PredicateFactory(DSTIP_ONLY_LAYOUT))
    fibs = install_routes(
        topology, tulkun.factory, RouteConfig(ecmp=args.ecmp)
    )
    owners = list(topology.devices_with_prefixes())[: args.destinations]
    if not owners:
        print(f"dataset {name} has no destination prefixes", file=sys.stderr)
        return 2
    targets = [
        (destination, cidr)
        for destination in owners
        for cidr in topology.external_prefixes(destination)
    ]
    invariants = [
        reachability_invariant(
            tulkun.factory,
            topology,
            destination,
            cidr,
            [d for d in topology.devices if d != destination],
        )
        for destination, cidr in targets
    ]

    say(
        f"booting {name}: {topology.num_devices} verifier agents over "
        "localhost TCP ..."
    )
    document: dict = {
        "command": "testbed",
        "dataset": name,
        "scale": args.scale,
        "devices": topology.num_devices,
        "invariants": [],
        "events": [],
    }
    with tulkun.deploy(
        fibs,
        backend="runtime",
        keepalive_interval=args.keepalive,
        op_timeout=args.timeout,
        http_enabled=not args.no_http,
        http_base_port=args.http_base_port,
    ) as deployment:
        endpoints = deployment.http_endpoints
        if endpoints:
            say(
                "live telemetry (/metrics /healthz /debug/flight): "
                + ", ".join(
                    f"{device}=http://{host}:{port}"
                    for device, (host, port) in endpoints.items()
                )
            )
        document["http_endpoints"] = {
            device: f"{host}:{port}"
            for device, (host, port) in endpoints.items()
        }
        reports = deployment.verify_all(invariants)
        plan_ids = [report.plan_id for report in reports]
        install = reports[0]
        say(
            f"installed {len(reports)} invariants as one burst: converged "
            f"in {install.verification_seconds * 1e3:.1f} ms, "
            f"{install.message_count} frames, "
            f"{install.message_bytes} wire bytes"
        )
        document["install"] = {
            "seconds": install.verification_seconds,
            "message_count": install.message_count,
            "message_bytes": install.message_bytes,
        }
        for (destination, cidr), report in zip(targets, reports):
            status = "HOLDS" if report.holds else "VIOLATED"
            say(f"  {report.plan_id} {report.invariant.name}: {status}")
            document["invariants"].append(
                {
                    "plan": report.plan_id,
                    "invariant": report.invariant.name,
                    "destination": destination,
                    "prefix": cidr,
                    "holds": report.holds,
                }
            )

        link = next(iter(topology.links))
        a, b = link.a, link.b
        say(f"failing link {a} -- {b} (TCP sessions cut) ...")
        seconds = deployment.fail_link(a, b)
        degraded = sum(
            1 for p in plan_ids if not deployment.holds(p)
        )
        say(
            f"  reconverged in {seconds * 1e3:.1f} ms; "
            f"{degraded}/{len(plan_ids)} invariants degraded"
        )
        document["events"].append(
            {
                "event": "fail_link",
                "link": [a, b],
                "seconds": seconds,
                "invariants_degraded": degraded,
            }
        )
        say(f"recovering link {a} -- {b} ...")
        seconds = deployment.recover_link(a, b)
        healthy = sum(1 for p in plan_ids if deployment.holds(p))
        say(
            f"  reconverged in {seconds * 1e3:.1f} ms; "
            f"{healthy}/{len(plan_ids)} invariants hold"
        )
        document["events"].append(
            {
                "event": "recover_link",
                "link": [a, b],
                "seconds": seconds,
                "invariants_holding": healthy,
            }
        )
        say(
            f"forcing a connection drop on {a} -- {b} "
            "(dead-peer detection + backoff-reconnect) ..."
        )
        seconds = deployment.drop_connection(a, b, hold_down=args.hold_down)
        healthy = sum(1 for p in plan_ids if deployment.holds(p))
        say(
            f"  session re-established and reconverged in "
            f"{seconds * 1e3:.1f} ms; {healthy}/{len(plan_ids)} "
            "invariants hold"
        )
        document["events"].append(
            {
                "event": "drop_connection",
                "link": [a, b],
                "seconds": seconds,
                "invariants_holding": healthy,
            }
        )
        records = deployment.statuses()
        if not args.json:
            print_table(
                f"{name}: per-device status",
                [
                    _status_row(record.device, record.status.upper(), record)
                    for record in records
                ],
            )
        reconnects = deployment.metrics.total_reconnects
        say(f"total reconnects: {reconnects}")
        document["metrics"] = {
            "rows": [record.to_dict() for record in records],
            "total_messages": deployment.metrics.total_messages,
            "total_bytes": deployment.metrics.total_bytes,
            "total_reconnects": reconnects,
        }
        # Emit results *before* any linger so scripts (and CI) can read
        # them while the fleet keeps serving telemetry.
        text = render_json(document, args.out)
        if args.json:
            print(text, end="")
        elif args.out:
            say(f"wrote JSON results to {args.out}")
        sys.stdout.flush()
        if args.linger > 0:
            say(
                f"lingering {args.linger:g}s with live telemetry up "
                "(scrape with curl or `python -m repro top`) ..."
            )
            time.sleep(args.linger)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Launch a sharded multi-process fleet and run it to convergence."""
    import asyncio
    import json

    from repro.bench.reporting import print_table, render_json
    from repro.fleet.launcher import FleetError, FleetLauncher
    from repro.fleet.spec import FleetSpec
    from repro.obs.collector import Collector

    spec = FleetSpec(
        topology=args.topology,
        workers=args.workers,
        base_port=args.base_port,
        destinations=args.destinations,
        ingresses=args.ingresses,
        seed=args.seed,
        keepalive_interval=args.keepalive,
        op_timeout=args.timeout,
        handshake_timeout=args.handshake_timeout,
    )

    def say(text: str) -> None:
        # --json keeps stdout a single machine-readable document.
        if not args.json:
            print(text)

    flight_dumps: dict = {}

    async def drive() -> dict:
        launcher = FleetLauncher(spec)
        plan = launcher.plan
        say(
            f"fleet: {spec.topology} -> "
            f"{launcher.topology.num_devices} device agents over "
            f"{spec.workers} worker process(es), base port "
            f"{spec.base_port} (logs: {launcher.run_dir})"
        )
        document: dict = {
            "command": "fleet",
            "topology": spec.topology,
            "devices": launcher.topology.num_devices,
            "links": launcher.topology.num_links,
            "diameter": launcher.topology.diameter_hops(),
            "workers": spec.workers,
            "shard_sizes": [len(shard) for shard in plan.shards],
            "colocated_link_fraction": plan.colocated_link_fraction(
                launcher.topology
            ),
            "base_port": spec.base_port,
            "run_dir": launcher.run_dir,
        }
        try:
            # start() inside the try: a crash during boot must still
            # tear the surviving workers down in the finally below.
            await launcher.start(ready_timeout=args.ready_timeout)
            say(
                "workers ready; installing "
                f"{spec.destinations or 'all'} destination plan(s) ..."
            )
            install_seconds = await launcher.install_plans()
            document["install_seconds"] = install_seconds
            say(f"  fleet converged in {install_seconds * 1e3:.1f} ms")
            update_seconds = []
            for index in range(args.updates):
                seconds = await launcher.apply_update(index, args.updates)
                update_seconds.append(seconds)
                say(
                    f"  update {index + 1}/{args.updates}: "
                    f"{seconds * 1e3:.1f} ms"
                )
            document["update_seconds"] = update_seconds
            verdicts = await launcher.verdicts()
            holds = launcher.holds(verdicts)
            document["holds"] = holds
            say(
                f"verdicts: {sum(holds.values())}/{len(holds)} "
                "invariant(s) hold"
            )
            if args.check_simulator:
                document["verdicts_match"] = _fleet_simulator_parity(
                    spec, verdicts, args.updates, say
                )
            document["metrics"] = await launcher.metrics()
            collector = Collector(
                launcher.telemetry_targets(), timeout=args.timeout
            )
            snapshot = await collector.scrape_once()
            document["fleet_state"] = snapshot.state
            document["scraped_devices"] = len(snapshot.samples)
            say(
                f"telemetry: {snapshot.state} "
                f"({len(snapshot.samples)} agents scraped); ports "
                f"{min(plan.http_ports.values())}-"
                f"{max(plan.http_ports.values())}"
            )
            if args.flight_out:
                # Collect while the workers are alive; the file write
                # happens after the loop exits (no blocking I/O here).
                flight_dumps.update(await launcher.dump_flight())
                document["flight_devices"] = len(flight_dumps)
            if args.linger > 0:
                say(
                    f"lingering {args.linger:g}s with the fleet up "
                    "(scrape with curl or `python -m repro top`) ..."
                )
                await asyncio.sleep(args.linger)
        finally:
            await launcher.stop()
        return document

    try:
        document = asyncio.run(drive())
    except FleetError as exc:
        print(f"fleet failed: {exc}", file=sys.stderr)
        return 1
    if args.flight_out and flight_dumps:
        with open(args.flight_out, "w", encoding="utf-8") as handle:
            json.dump(flight_dumps, handle, sort_keys=True, default=str)
        say(
            f"wrote flight-recorder dumps for {len(flight_dumps)} "
            f"device(s) to {args.flight_out} "
            "(inspect with `python -m repro explain`)"
        )
    text = render_json(document, args.out)
    if args.json:
        print(text, end="")
    else:
        rows = [
            {
                "plan": plan_id,
                "holds": "yes" if verdict else "NO",
            }
            for plan_id, verdict in sorted(document["holds"].items())
        ]
        print_table(f"{spec.topology}: fleet verdicts", rows)
        if args.out:
            print(f"wrote JSON results to {args.out}")
    # Exit status: with --check-simulator, parity is the contract (an
    # injected erroneous update legitimately breaks an invariant on
    # both backends); otherwise every invariant must hold.
    ok = document["fleet_state"] == "ok"
    if args.check_simulator:
        ok = ok and document["verdicts_match"]
    else:
        ok = ok and all(document["holds"].values())
    return 0 if ok else 1


def _deploy_workload(workload, backend: str, **options):
    """Deploy a built workload on ``backend`` with its plans installed
    under their own ids (a runtime deployment must be closed)."""
    deployment = Tulkun(workload.topology, workload.factory).deploy(
        workload.fibs, backend, **options
    )
    try:
        deployment.install(dict(workload.plans))
    except BaseException:
        deployment.close()
        raise
    return deployment


def _fleet_simulator_parity(
    spec, fleet_verdicts: dict, updates: int, say
) -> bool:
    """Diff the fleet's merged verdicts against a simulator run.

    Replays the same workload -- burst install plus the same
    deterministic update stream -- on the simulator backend.
    """
    from repro.fleet.spec import build_fleet_workload, fleet_update_stream

    workload = build_fleet_workload(spec)
    deployment = _deploy_workload(workload, "sim")
    for update in fleet_update_stream(spec, workload, updates):
        deployment.update_rule(update.device, update.apply)
    simulated: dict = {}
    for report in deployment.reports():
        rows = [
            [
                verdict.ingress,
                verdict.holds,
                sorted(list(entry) for entry in verdict.counts.tuples),
            ]
            for verdict in report.verdicts
        ]
        rows.sort(key=lambda row: str(row[0]))
        simulated[report.plan_id] = rows
    match = simulated == fleet_verdicts
    say(
        "simulator parity: "
        + ("verdicts identical" if match else "VERDICTS DIFFER")
    )
    return match


def _parse_endpoint(spec: str) -> Optional[tuple]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        return None
    return (host, int(port))


#: The columns of a per-device table row drawn from a status record
#: (``repro top``, ``repro testbed``).
_STATUS_COLUMNS = (
    "phase", "msgs in/out", "bytes in/out", "inbox", "pending",
    "reconnects", "peer downs", "decode errs", "hs fails",
)


def _status_row(device: str, health: str, record) -> dict:
    """One per-device table row from a ``DeviceStatus`` record (``None``
    for an agent that did not answer: its cells read ``-``)."""
    row = {"device": device, "health": health}
    row.update(dict.fromkeys(_STATUS_COLUMNS, "-"))
    if record is not None:
        row.update(
            zip(
                _STATUS_COLUMNS,
                (
                    record.phase,
                    f"{record.messages_in}/{record.messages_out}",
                    f"{record.bytes_in}/{record.bytes_out}",
                    record.inbox_depth,
                    record.pending_out,
                    record.reconnects,
                    record.peer_down_events,
                    record.decode_errors,
                    record.handshake_failures,
                ),
            )
        )
    return row


def _sample_row(sample) -> dict:
    """One ``repro top`` table row from a collector DeviceSample."""
    status = sample.status.upper()
    if sample.stalled:
        status += " STALLED"
    row = _status_row(sample.device, status, sample.record)
    row["scrape ms"] = f"{sample.latency_seconds * 1e3:.1f}"
    row["stale s"] = f"{sample.staleness_seconds:.1f}"
    return row


#: What ``repro top --json`` copies per device from its status record
#: (zero for an agent that did not answer).
_TOP_RECORD_KEYS = (
    "messages_in", "messages_out", "bytes_in", "bytes_out",
    "inbox_depth", "pending_out",
)


def _snapshot_document(snapshot) -> dict:
    return {
        "state": snapshot.state,
        "alerts": snapshot.alerts,
        "devices": [
            {
                "device": sample.device,
                "target": f"{sample.target[0]}:{sample.target[1]}",
                "status": sample.status,
                "stalled": sample.stalled,
                "http_status": sample.http_status,
                "latency_seconds": sample.latency_seconds,
                "staleness_seconds": sample.staleness_seconds,
                "error": sample.error,
                **{
                    key: getattr(sample.record, key) if sample.record else 0
                    for key in _TOP_RECORD_KEYS
                },
            }
            for sample in snapshot.samples
        ],
    }


def _cmd_top(args: argparse.Namespace) -> int:
    """Live per-device fleet table scraped from telemetry endpoints."""
    import asyncio
    import json

    from repro.bench.reporting import print_table
    from repro.obs.collector import Collector

    targets = []
    for spec in args.endpoints:
        target = _parse_endpoint(spec)
        if target is None:
            print(
                f"bad endpoint {spec!r} (expected HOST:PORT)",
                file=sys.stderr,
            )
            return 2
        targets.append(target)
    collector = Collector(
        targets, timeout=args.timeout, stall_scrapes=args.stall_scrapes
    )
    refreshing = not (args.once or args.json) and sys.stdout.isatty()

    async def watch() -> int:
        cycles = 0
        while True:
            snapshot = await collector.scrape_once()
            cycles += 1
            if args.json:
                print(
                    json.dumps(
                        _snapshot_document(snapshot),
                        indent=2,
                        sort_keys=True,
                        default=str,
                    )
                )
            else:
                if refreshing:
                    print("\x1b[2J\x1b[H", end="")
                print_table(
                    f"fleet: {snapshot.state}  "
                    f"({len(snapshot.samples)} devices, scrape #{cycles})",
                    [_sample_row(sample) for sample in snapshot.samples],
                )
                for alert in snapshot.alerts:
                    print(
                        f"ALERT [{alert['kind']}] {alert['device']}: "
                        f"{alert['detail']}"
                    )
            if args.once or (args.count and cycles >= args.count):
                return 0 if snapshot.state == "ok" else 1
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(watch())
    except KeyboardInterrupt:
        print()
        return 0


#: Ring capacity `repro trace` runs its own scenario with: per device,
#: above anything a built-in dataset's burst records (the INet2 default
#: peaks below 1k events per device).
_TRACE_RING = 1 << 16


def _load_dumps(paths) -> list:
    """The JSON documents of flight dump files (`explain`, `trace`)."""
    import json

    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            try:
                documents.append(json.load(handle))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    return documents


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export the trace derived from flight dumps.

    The dumps are the positional files (whatever ``repro explain``
    accepts) or, with none given, those of one burst run here.  Checks
    the derived records with :func:`repro.obs.export.validate_records`
    and writes ``trace.chrome.json`` (plus the run's ``metrics.prom``)
    into ``--out``.  Exit 1 when the records fail validation or a ring
    lost events (the counts are printed; the parents they took with
    them are ``null``), 2 on unreadable input.
    """
    import os

    from repro.obs.export import validate_records, write_chrome
    from repro.obs.flight import merge_dumps, records_from_flight

    registry = None
    if args.dumps:
        try:
            dumps = _load_dumps(args.dumps)
        except (OSError, ValueError) as exc:
            print(f"cannot read flight dump: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.bench.workloads import build_workload

        try:
            name = _resolve_dataset(args.dataset)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        backend = "simulator" if args.backend == "sim" else args.backend
        max_destinations = args.destinations if args.destinations > 0 else None
        workload = build_workload(
            name, scale=args.scale, max_destinations=max_destinations
        )
        print(
            f"tracing {name} burst on the {backend} backend "
            f"({workload.topology.num_devices} devices, "
            f"{len(workload.plans)} plans) ..."
        )
        options = dict(flight=True, flight_capacity=_TRACE_RING)
        if backend == "runtime":
            options["keepalive_interval"] = 0.2
        with Tulkun(workload.topology, workload.factory).deploy(
            workload.fibs, "runtime" if backend == "runtime" else "sim",
            **options,
        ) as deployment:
            report = deployment.install(dict(workload.plans))[0]
            dumps = deployment.flight_dump()
        registry = deployment.backend.registry
        # The install's counting frames (no session control traffic).
        print(
            f"  converged in {report.verification_seconds * 1e3:.1f} ms; "
            f"{report.message_count} messages, {report.message_bytes} bytes"
        )

    try:
        merged = merge_dumps(dumps)
        records = records_from_flight(merged)
    except (TypeError, ValueError) as exc:
        print(f"malformed flight dump: {exc!r}", file=sys.stderr)
        return 2
    print(
        f"  {len(merged['events'])} flight event(s) from "
        f"{len(merged['devices'])} device(s)"
    )
    os.makedirs(args.out, exist_ok=True)
    chrome_path = os.path.join(args.out, "trace.chrome.json")
    event_count = write_chrome(records, chrome_path)
    print(
        f"  wrote {chrome_path} ({len(records)} records, "
        f"{event_count} Chrome trace events)"
    )
    if registry is not None:
        with open(os.path.join(args.out, "metrics.prom"), "w") as handle:
            handle.write(registry.render_text())
        print("  wrote metrics.prom")

    status = 0
    if merged["truncated"]:
        print(
            f"flight rings lost events: {merged['dropped']} dropped, "
            f"{merged['missing']} missing -- spans whose cause is gone "
            "have no parent",
            file=sys.stderr,
        )
        status = 1
    errors = validate_records(records)
    if errors:
        print(
            f"trace schema validation FAILED ({len(errors)} errors):",
            file=sys.stderr,
        )
        for error in errors[:20]:
            print(f"  {error}", file=sys.stderr)
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print("  trace schema validation OK")
    return status


def _explain_scenario(
    name: str,
    backend: str,
    scale: str = "bench",
    destinations: int = 3,
    max_updates: int = 20,
) -> tuple:
    """Generate a violation scenario; returns ``(dumps, description)``.

    Both backends share one stopping rule so their forensics are
    comparable: a flight-off simulator probe finds the shortest prefix
    of the deterministic update stream (:func:`random_rule_updates`,
    fixed seed) that breaks an invariant, then the chosen backend
    replays exactly that prefix with flight recording on.  If the
    random stream never breaks anything, a deterministic blackhole
    (drop the first destination's prefix at the destination itself) is
    appended so the scenario always ends in a verdict flip.
    """
    from repro.bench.workloads import (
        RuleUpdate,
        build_workload,
        random_rule_updates,
    )

    def fresh() -> tuple:
        workload = build_workload(
            name, scale=scale, max_destinations=destinations
        )
        return workload, random_rule_updates(workload, max_updates)

    def blackhole(workload) -> RuleUpdate:
        from repro.dataplane.actions import Drop
        from repro.dataplane.routes import PRIORITY_ERROR

        destination = next(iter(workload.topology.devices_with_prefixes()))
        cidr = next(iter(workload.topology.external_prefixes(destination)))
        packets = workload.factory.dst_prefix(cidr)
        return RuleUpdate(
            device=destination,
            description=f"blackhole {cidr} at {destination}",
            apply=lambda: workload.fibs[destination].insert(
                PRIORITY_ERROR, packets, Drop(), label=f"blackhole-{cidr}"
            ),
        )

    workload, updates = fresh()
    probe = _deploy_workload(workload, "sim")
    applied = 0
    violated = False
    for update in updates:
        probe.update_rule(update.device, update.apply)
        applied += 1
        if any(not probe.holds(pid) for pid, _ in workload.plans):
            violated = True
            break

    workload, updates = fresh()
    replay = list(updates[:applied])
    if not violated:
        replay.append(blackhole(workload))
    if backend == "simulator":
        chosen = _deploy_workload(workload, "sim", flight=True)
    else:
        chosen = _deploy_workload(
            workload, "runtime", keepalive_interval=0.2, http_enabled=False
        )
    with chosen:
        for update in replay:
            chosen.update_rule(update.device, update.apply)
        dumps = chosen.flight_dump()
    description = f"{name} on the {backend} backend, {len(replay)} update(s)"
    if not violated:
        description += " incl. injected blackhole"
    return dumps, description


def _cmd_explain(args: argparse.Namespace) -> int:
    """Verdict forensics: merge flight dumps, walk the causal chain.

    Exit codes: 0 = chain reconstructed, 1 = no verdict transition in
    the dumps, 2 = unreadable input / bad arguments.
    """
    import json

    from repro.obs.flight import (
        causal_chain,
        chain_signature,
        describe_unplanned,
        find_verdict,
        merge_dumps,
        render_chain,
        render_timeline,
        unplanned_scene,
    )

    if args.dumps:
        try:
            merged = merge_dumps(_load_dumps(args.dumps))
        except (OSError, ValueError) as exc:
            print(f"cannot read flight dump: {exc}", file=sys.stderr)
            return 2
        source = ", ".join(args.dumps)
    else:
        try:
            name = _resolve_dataset(args.dataset)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        backend = {
            "sim": "simulator",
            "simulator": "simulator",
            "runtime": "runtime",
        }[args.backend]
        print(
            f"no dump files given; generating a violation scenario "
            f"({name}, {backend} backend) ..."
        )
        dumps, source = _explain_scenario(
            name,
            backend,
            scale=args.scale,
            destinations=args.destinations,
            max_updates=args.updates,
        )
        merged = merge_dumps(dumps)

    target = find_verdict(merged, device=args.device, plan=args.plan)
    if target is None:
        print(
            "no verdict transition found in the flight dump(s)"
            + (
                f" for device={args.device!r} plan={args.plan!r}"
                if args.device or args.plan
                else ""
            ),
            file=sys.stderr,
        )
        return 1
    chain = causal_chain(merged, target=target)
    print(
        f"flight dump: {len(merged['events'])} event(s) from "
        f"{len(merged['devices'])} device(s) ({source})"
    )
    if merged.get("truncated"):
        print(
            f"  truncated: {merged['dropped']} dropped, "
            f"{merged['missing']} missing -- the chain may stop early"
        )
    plan = target.get("plan")
    if args.plan and args.plan != plan:
        plan = f"{args.plan} (installed in group {plan})"
    if target.get("etype") == "unplanned":
        outcome = describe_unplanned(unplanned_scene(merged, target["plan"]))
    else:
        outcome = f"holds={target.get('holds')}"
    print(f"explaining: plan {plan} on {target.get('device')} -> {outcome}")
    print()
    print("causal chain (origin -> verdict):")
    print(render_chain(chain))
    if args.timeline:
        print()
        print("convergence timeline (causally ordered):")
        print(render_timeline(merged, limit=args.timeline_limit))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "target": target,
                    "chain": chain,
                    "signature": [
                        list(entry) for entry in chain_signature(chain)
                    ],
                    "merged": merged,
                },
                handle,
                sort_keys=True,
                default=str,
            )
        print(f"wrote chain + merged log to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.checkers.cli import cmd_lint

    return cmd_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tulkun: distributed, on-device data plane verification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the Figure 2 walkthrough")
    commands.add_parser("datasets", help="print Figure 10 dataset statistics")

    verify = commands.add_parser("verify", help="verify one invariant")
    verify.add_argument("--dataset", help="built-in dataset name (e.g. INet2)")
    verify.add_argument("--topology", help="topology JSON file")
    verify.add_argument("--fibs", help="data plane JSON file")
    verify.add_argument(
        "--ecmp",
        default="any",
        choices=("any", "single", "all"),
        help="route generation mode for --dataset (default: any)",
    )
    verify.add_argument(
        "--invariant", required=True, help="invariant program (§3 syntax)"
    )

    testbed = commands.add_parser(
        "testbed",
        help="run a dataset on the asyncio/TCP runtime backend",
    )
    testbed.add_argument(
        "--dataset",
        default="INet2",
        help="built-in dataset name, case-insensitive (default: INet2)",
    )
    testbed.add_argument(
        "--scale",
        default="bench",
        choices=("paper", "bench", "tiny"),
        help="dataset scale (default: bench)",
    )
    testbed.add_argument(
        "--ecmp",
        default="any",
        choices=("any", "single", "all"),
        help="route generation mode (default: any)",
    )
    testbed.add_argument(
        "--destinations",
        type=int,
        default=3,
        help="number of destination devices to verify (default: 3)",
    )
    testbed.add_argument(
        "--keepalive",
        type=float,
        default=0.2,
        help="session keepalive interval in seconds (default: 0.2)",
    )
    testbed.add_argument(
        "--hold-down",
        type=float,
        default=0.2,
        help="redial hold-down after the forced drop (default: 0.2)",
    )
    testbed.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-operation convergence deadline in seconds (default: 60)",
    )
    testbed.add_argument(
        "--json",
        action="store_true",
        help="emit results as one JSON document instead of text tables",
    )
    testbed.add_argument(
        "--out",
        default=None,
        help="also write the JSON results document to this file",
    )
    testbed.add_argument(
        "--http-base-port",
        type=int,
        default=None,
        help=(
            "base port for the per-agent telemetry servers (device i of "
            "the sorted device list serves on base+i; default: ephemeral "
            "ports, printed at boot)"
        ),
    )
    testbed.add_argument(
        "--no-http",
        action="store_true",
        help="disable the per-agent /metrics + /healthz servers",
    )
    testbed.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help=(
            "keep the fleet (and its telemetry endpoints) up this many "
            "seconds after the workload, for live scraping (default: 0)"
        ),
    )

    fleet = commands.add_parser(
        "fleet",
        help="launch a sharded multi-process fleet over real sockets",
    )
    fleet.add_argument(
        "--topology",
        default="ft4",
        help=(
            "fleet topology: ftK (k-ary fattree), ftKhH (H rack hosts "
            "per ToR, e.g. ft16h8), or a dataset name (default: ft4)"
        ),
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=2,
        help="number of worker processes (default: 2)",
    )
    fleet.add_argument(
        "--base-port",
        type=int,
        default=27100,
        help=(
            "base of the deterministic port plan: workers serve control "
            "on base+i, devices bind DVM/telemetry ports above it "
            "(default: 27100)"
        ),
    )
    fleet.add_argument(
        "--destinations",
        type=int,
        default=4,
        help="destination prefixes kept for the workload (0 = all; default: 4)",
    )
    fleet.add_argument(
        "--ingresses",
        type=int,
        default=8,
        help="ingresses sampled per invariant (0 = all owners; default: 8)",
    )
    fleet.add_argument(
        "--updates",
        type=int,
        default=0,
        help="incremental rule updates to apply after install (default: 0)",
    )
    fleet.add_argument(
        "--seed",
        type=int,
        default=11,
        help="workload seed (default: 11)",
    )
    fleet.add_argument(
        "--keepalive",
        type=float,
        default=0.5,
        help="session keepalive interval in seconds (default: 0.5)",
    )
    fleet.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-operation convergence deadline in seconds (default: 120)",
    )
    fleet.add_argument(
        "--handshake-timeout",
        type=float,
        default=5.0,
        help=(
            "per-session OPEN handshake deadline in seconds; raise it "
            "together with --keepalive on oversubscribed machines "
            "(default: 5)"
        ),
    )
    fleet.add_argument(
        "--ready-timeout",
        type=float,
        default=180.0,
        help="deadline for all workers to boot and establish (default: 180)",
    )
    fleet.add_argument(
        "--check-simulator",
        action="store_true",
        help="also run the simulator backend and diff the verdicts",
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help="emit results as one JSON document instead of text tables",
    )
    fleet.add_argument(
        "--out",
        default=None,
        help="also write the JSON results document to this file",
    )
    fleet.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help=(
            "keep the fleet (and its telemetry endpoints) up this many "
            "seconds after the workload (default: 0)"
        ),
    )
    fleet.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help=(
            "collect every worker's per-device flight-recorder dumps "
            "(the dump_flight op) into this JSON file; feed it to "
            "`python -m repro explain`"
        ),
    )

    top = commands.add_parser(
        "top",
        help="live per-device table of the agents' /healthz status records",
    )
    top.add_argument(
        "endpoints",
        nargs="+",
        metavar="HOST:PORT",
        help="telemetry endpoints of the agents to watch",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between scrapes (default: 1.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="scrape once and exit (0 = fleet ok, 1 = degraded)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="exit after this many scrapes (0 = run until interrupted)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON snapshot per scrape instead of a table",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-endpoint scrape timeout in seconds (default: 2.0)",
    )
    top.add_argument(
        "--stall-scrapes",
        type=int,
        default=2,
        help=(
            "consecutive frozen scrapes mid-convergence before a stall "
            "alert (default: 2)"
        ),
    )

    trace = commands.add_parser(
        "trace",
        help="export the span trace derived from flight-recorder dumps",
    )
    trace.add_argument(
        "dumps",
        nargs="*",
        metavar="DUMP.json",
        help=(
            "flight dump file(s), as for `explain`; with none given, one "
            "burst is run via --dataset/--backend and its dumps traced"
        ),
    )
    trace.add_argument(
        "--dataset",
        default="INet2",
        help="built-in dataset name, case-insensitive (default: INet2)",
    )
    trace.add_argument(
        "--backend",
        default="simulator",
        choices=("simulator", "sim", "runtime"),
        help="which backend to trace (default: simulator)",
    )
    trace.add_argument(
        "--scale",
        default="bench",
        choices=("paper", "bench", "tiny"),
        help="dataset scale (default: bench)",
    )
    trace.add_argument(
        "--destinations",
        type=int,
        default=4,
        help="invariant destinations to install (0 = all; default: 4)",
    )
    trace.add_argument(
        "--out",
        default="trace-out",
        help="output directory for the artifacts (default: trace-out)",
    )

    explain = commands.add_parser(
        "explain",
        help="reconstruct the causal chain behind a verdict transition",
    )
    explain.add_argument(
        "dumps",
        nargs="*",
        metavar="DUMP.json",
        help=(
            "flight dump file(s): /debug/flight responses, `fleet "
            "--flight-out` output, or any nesting of per-device dumps; "
            "with none given, a violation scenario is generated via "
            "--dataset/--backend"
        ),
    )
    explain.add_argument(
        "--dataset",
        default="INet2",
        help="dataset for the generated scenario (default: INet2)",
    )
    explain.add_argument(
        "--backend",
        default="simulator",
        choices=("simulator", "sim", "runtime"),
        help="backend for the generated scenario (default: simulator)",
    )
    explain.add_argument(
        "--scale",
        default="bench",
        choices=("paper", "bench", "tiny"),
        help="dataset scale for the generated scenario (default: bench)",
    )
    explain.add_argument(
        "--destinations",
        type=int,
        default=3,
        help="invariant destinations for the scenario (default: 3)",
    )
    explain.add_argument(
        "--updates",
        type=int,
        default=20,
        help=(
            "max rule updates injected while hunting a violation "
            "(default: 20)"
        ),
    )
    explain.add_argument(
        "--device",
        default=None,
        help="explain the verdict on this device (default: last violated)",
    )
    explain.add_argument(
        "--plan",
        default=None,
        help="restrict to this plan/invariant id",
    )
    explain.add_argument(
        "--timeline",
        action="store_true",
        help="also print the merged convergence timeline",
    )
    explain.add_argument(
        "--timeline-limit",
        type=int,
        default=40,
        help="events shown in the --timeline view (default: 40)",
    )
    explain.add_argument(
        "--out",
        default=None,
        help="write target + chain + signature + merged log as JSON",
    )

    lint = commands.add_parser(
        "lint",
        help="run the repro-lint static analyzer (exit 1 on findings)",
    )
    from repro.checkers.cli import configure_parser

    configure_parser(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "datasets": _cmd_datasets,
        "verify": _cmd_verify,
        "testbed": _cmd_testbed,
        "fleet": _cmd_fleet,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "explain": _cmd_explain,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
