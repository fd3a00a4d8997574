"""Network topology substrate.

Provides the :class:`Topology` graph model (devices, bidirectional links
with latencies, external prefix attachment), deterministic generators for
fattree/Clos/WAN-style graphs, and the 13 evaluation datasets mirroring the
paper's Figure 10.
"""

from repro.topology.graph import FaultScene, Link, Topology
from repro.topology.generators import (
    chained_diamond,
    clos,
    fattree,
    line,
    paper_example,
    synthetic_wan,
)
from repro.topology.datasets import DATASETS, DatasetSpec, load_dataset

__all__ = [
    "Topology",
    "Link",
    "FaultScene",
    "fattree",
    "clos",
    "synthetic_wan",
    "line",
    "chained_diamond",
    "paper_example",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
]
