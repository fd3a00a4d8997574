"""Tests for the benchmark runners."""

import pytest

from repro.baselines import ApVerifier
from repro.baselines.collection import CollectionModel
from repro.bench.runners import (
    fraction_below,
    quantile,
    run_baseline_burst,
    run_baseline_incremental,
    run_tulkun_burst,
    run_tulkun_incremental,
)
from repro.bench.workloads import build_workload, random_rule_updates


@pytest.fixture(scope="module")
def workload():
    return build_workload("INet2", max_destinations=3)


class TestStatistics:
    def test_quantile_nearest_rank(self):
        # rank ceil(q * n): the 8th of 10 samples is the 0.8 quantile
        values = list(range(10))
        assert quantile(values, 0.0) == 0
        assert quantile(values, 0.5) == 4
        assert quantile(values, 0.8) == 7
        assert quantile(values, 0.81) == 8
        assert quantile(values, 1.0) == 9
        # odd n: rank 3 of 5 is the median
        assert quantile([30, 10, 50, 20, 40], 0.5) == 30
        assert quantile([30, 10, 50, 20, 40], 0.21) == 20
        # 0.07 * 100 == 7.000000000000001 in floats, whose ceiling is 8
        assert quantile(list(range(100)), 0.07) == 6

    def test_quantile_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == pytest.approx(0.5)
        assert fraction_below([], 3) == 0.0


class TestTulkunRunners:
    def test_burst(self, workload):
        timing = run_tulkun_burst(workload)
        assert timing.burst_seconds > 0
        assert timing.messages > 0
        assert timing.network is not None

    def test_incremental_reuses_network(self, workload):
        burst = run_tulkun_burst(workload)
        updates = random_rule_updates(workload, 5, seed=9)
        timing = run_tulkun_incremental(workload, updates, network=burst.network)
        assert len(timing.incremental_seconds) == 5
        assert all(seconds >= 0 for seconds in timing.incremental_seconds)


class TestBaselineRunners:
    def test_burst_includes_collection(self, workload):
        collection = CollectionModel(workload.topology)
        timing = run_baseline_burst(ApVerifier, workload, collection)
        assert timing.burst_seconds > collection.burst_collection_latency()
        assert timing.name == "AP"

    def test_incremental(self, workload):
        collection = CollectionModel(workload.topology)
        verifier = ApVerifier(workload.factory)
        verifier.load_snapshot(workload.fibs)
        updates = random_rule_updates(workload, 4, seed=10)
        timing = run_baseline_incremental(workload, updates, verifier, collection)
        assert len(timing.incremental_seconds) == 4
        # every update pays at least the management-network latency
        for update, seconds in zip(updates, timing.incremental_seconds):
            assert seconds >= collection.update_latency(update.device)
