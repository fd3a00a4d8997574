"""JSON import/export of topologies and data planes.

Lets operators feed real networks into the verifier:

Topology document::

    {
      "name": "net",
      "links": [["S", "A", 0.001], ["A", "B", 0.001]],
      "prefixes": {"B": ["10.0.0.0/24"]}
    }

Data plane document (list of rules)::

    [
      {"device": "S", "priority": 100,
       "match": {"dstIP": "10.0.0.0/24", "dstPort": 80},
       "action": {"type": "forward", "next_hops": ["A"], "kind": "ANY"}},
      {"device": "B", "priority": 100,
       "match": {"dstIP": "10.0.0.0/24"},
       "action": {"type": "deliver"}}
    ]

``match`` fields: ``dstIP``/``srcIP`` (CIDR), ``dstPort``/``srcPort``/
``proto`` (int).  ``action.type``: ``forward`` (with ``next_hops`` and
optional ``kind``/``rewrite``), ``drop``, ``deliver``.  ``rewrite`` maps
field names to constants (``{"dstPort": 8080}``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.dataplane.actions import ALL, Action, Deliver, Drop, Forward
from repro.dataplane.fib import Fib
from repro.packetspace.predicate import Predicate, PredicateFactory
from repro.packetspace.transform import Rewrite
from repro.topology.graph import Topology

_MATCH_FIELDS = {
    "dstIP": ("dst_ip", "cidr"),
    "srcIP": ("src_ip", "cidr"),
    "dstPort": ("dst_port", "int"),
    "srcPort": ("src_port", "int"),
    "proto": ("proto", "int"),
}

_REWRITE_FIELDS = {
    "dstIP": "dst_ip",
    "srcIP": "src_ip",
    "dstPort": "dst_port",
    "srcPort": "src_port",
    "proto": "proto",
}


class DocumentError(ValueError):
    """Raised for malformed topology/data-plane documents."""


# ---------------------------------------------------------------------------
# topology


def topology_from_dict(document: Dict) -> Topology:
    """Build a :class:`Topology` from a parsed JSON document."""
    if not isinstance(document, dict):
        raise DocumentError("topology document must be an object")
    topology = Topology(str(document.get("name", "net")))
    for device in document.get("devices", []):
        topology.add_device(str(device))
    for entry in document.get("links", []):
        if not isinstance(entry, (list, tuple)) or len(entry) < 2:
            raise DocumentError(f"malformed link entry {entry!r}")
        a, b = str(entry[0]), str(entry[1])
        latency = float(entry[2]) if len(entry) > 2 else 0.0
        topology.add_link(a, b, latency)
    for device, prefixes in document.get("prefixes", {}).items():
        for cidr in prefixes:
            topology.attach_prefix(str(device), str(cidr))
    return topology


def topology_to_dict(topology: Topology) -> Dict:
    return {
        "name": topology.name,
        "devices": list(topology.devices),
        "links": [
            [link.a, link.b, link.latency] for link in topology.links
        ],
        "prefixes": {
            device: list(topology.external_prefixes(device))
            for device in topology.devices_with_prefixes()
        },
    }


def load_topology(path: str) -> Topology:
    with open(path) as handle:
        return topology_from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# data plane


def _match_predicate(factory: PredicateFactory, match: Dict) -> Predicate:
    predicate = factory.all_packets()
    for field, value in match.items():
        if field not in _MATCH_FIELDS:
            raise DocumentError(
                f"unknown match field {field!r}; known: {sorted(_MATCH_FIELDS)}"
            )
        name, kind = _MATCH_FIELDS[field]
        if kind == "cidr":
            import ipaddress

            network = ipaddress.ip_network(str(value), strict=False)
            predicate = predicate & factory.field_prefix(
                name, int(network.network_address), network.prefixlen
            )
        else:
            predicate = predicate & factory.field_eq(name, int(value))
    return predicate


def _action_from_dict(document: Dict) -> Action:
    kind = document.get("type")
    if kind == "drop":
        return Drop()
    if kind == "deliver":
        return Deliver()
    if kind == "forward":
        next_hops = document.get("next_hops")
        if not next_hops:
            raise DocumentError("forward action needs non-empty next_hops")
        rewrite_doc = document.get("rewrite")
        rewrite: Optional[Rewrite] = None
        if rewrite_doc:
            assignments = {}
            for field, value in rewrite_doc.items():
                if field not in _REWRITE_FIELDS:
                    raise DocumentError(f"unknown rewrite field {field!r}")
                if field in ("dstIP", "srcIP"):
                    import ipaddress

                    value = int(ipaddress.ip_address(str(value)))
                assignments[_REWRITE_FIELDS[field]] = int(value)
            rewrite = Rewrite(assignments)
        return Forward(
            [str(hop) for hop in next_hops],
            kind=str(document.get("kind", ALL)).upper(),
            rewrite=rewrite,
        )
    raise DocumentError(f"unknown action type {kind!r}")


def fibs_from_list(
    rules: List[Dict],
    factory: PredicateFactory,
    topology: Optional[Topology] = None,
) -> Dict[str, Fib]:
    """Build per-device FIBs from a rule list document.

    With ``topology`` given, every device gets a (possibly empty) FIB and
    rules for unknown devices are rejected.
    """
    fibs: Dict[str, Fib] = {}
    if topology is not None:
        fibs = {device: Fib(device) for device in topology.devices}
    for index, entry in enumerate(rules):
        device = entry.get("device")
        if device is None:
            raise DocumentError(f"rule #{index} has no device")
        device = str(device)
        if topology is not None and device not in fibs:
            raise DocumentError(
                f"rule #{index}: device {device!r} not in topology"
            )
        fib = fibs.setdefault(device, Fib(device))
        match = entry.get("match", {})
        label = str(entry.get("label", match.get("dstIP", "")))
        fib.insert(
            int(entry.get("priority", 0)),
            _match_predicate(factory, match),
            _action_from_dict(entry.get("action", {})),
            label=label,
        )
    return fibs


def load_fibs(
    path: str,
    factory: PredicateFactory,
    topology: Optional[Topology] = None,
) -> Dict[str, Fib]:
    with open(path) as handle:
        return fibs_from_list(json.load(handle), factory, topology)
