"""Shared benchmark fixtures.

Bench datasets are scaled for pytest-benchmark wall times (the paper's
full sweep sizes are available by exporting ``TULKUN_BENCH_SCALE=paper``
and ``TULKUN_BENCH_FULL=1``; see EXPERIMENTS.md for the mapping).
Results also land as text tables in ``benchmarks/out/`` so every figure's
rows can be inspected after a run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.workloads import build_workload
from repro.core import Tulkun

#: Destination caps per dataset keeping the default bench run fast; the
#: per-destination plans are independent, so times scale linearly.
DEFAULT_CAPS = {
    "INet2": None,  # 9 destinations: full
    "B4-13": None,
    "STFD": None,
    "AT1-1": 6,
    "AT1-2": 6,
    "B4-18": 6,
    "BTNA": 4,
    "NTT": 3,
    "AT2-1": 3,
    "AT2-2": 3,
    "OTEG": 3,
    "FT-48": 4,
    "NGDC": 4,
}

#: The representative sweep used by the figure benches by default.
BENCH_WAN_DATASETS = ("INet2", "B4-13", "STFD", "AT1-1", "AT1-2", "B4-18")
BENCH_DC_DATASETS = ("FT-48", "NGDC")


def bench_scale() -> str:
    return os.environ.get("TULKUN_BENCH_SCALE", "bench")


def full_sweep() -> bool:
    return bool(os.environ.get("TULKUN_BENCH_FULL"))


def dataset_names() -> tuple:
    if full_sweep():
        from repro.topology.datasets import FIGURE_ORDER

        return FIGURE_ORDER
    return BENCH_WAN_DATASETS + BENCH_DC_DATASETS


OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


_WORKLOAD_CACHE = {}


@pytest.fixture(scope="session")
def workload_for():
    """Session-cached workload loader."""

    def load(dataset: str):
        from repro.topology.datasets import DATASETS

        key = (dataset, bench_scale())
        if key not in _WORKLOAD_CACHE:
            cap = None if full_sweep() else DEFAULT_CAPS.get(dataset)
            # WAN/LAN rule volume: 2 distinct prefixes per device by
            # default, 4 on full sweeps (closer to the real FIB sizes).
            prefixes = 4 if full_sweep() else 2
            if DATASETS[dataset].kind == "DC":
                prefixes = 1
            _WORKLOAD_CACHE[key] = build_workload(
                dataset,
                scale=bench_scale(),
                max_destinations=cap,
                prefixes_per_device=prefixes,
            )
        return _WORKLOAD_CACHE[key]

    return load


def write_table(out_dir, name: str, text: str) -> None:
    (out_dir / name).write_text(text)


def deploy_workload(workload):
    """A simulator deployment of ``workload`` with every plan installed
    as one batch (the burst); returns it and the burst's first report
    (every report of a batch carries the batch's time and frames)."""
    deployment = Tulkun(workload.topology, workload.factory).deploy(
        workload.fibs
    )
    return deployment, deployment.install(dict(workload.plans))[0]
