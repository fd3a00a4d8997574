"""The metrics registry: instruments, schema discipline, exposition."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.schema import DVM_METRIC_NAMES, install_dvm_schema


class TestHistogram:
    def test_each_observation_lands_in_exactly_one_bucket(self):
        hist = Histogram({}, bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # Non-cumulative storage: 0.5 and 1.0 in <=1, 1.5 in <=2,
        # 3.0 in <=4, 100.0 in the +Inf overflow bucket.
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.overflow == 1
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        hist = Histogram({}, bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        pairs = hist.cumulative()
        assert pairs == [(1.0, 1), (2.0, 2), (float("inf"), 3)]
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)

    def test_bounds_must_be_strictly_increasing_and_nonempty(self):
        with pytest.raises(MetricError):
            Histogram({}, bounds=(2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram({}, bounds=(1.0, 1.0))
        with pytest.raises(MetricError):
            Histogram({}, bounds=())


class TestCounter:
    def test_counter_only_goes_up(self):
        counter = Counter({"device": "A"})
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(MetricError):
            counter.inc(-1.0)


class TestFamiliesAndRegistry:
    def test_labels_create_children_on_first_use(self):
        registry = MetricsRegistry()
        family = registry.counter("frames", labelnames=("device", "kind"))
        family.labels(device="A", kind="counting").inc()
        family.labels(device="A", kind="counting").inc()
        family.labels(device="B", kind="control").inc()
        assert len(family.children()) == 2
        assert family.total() == 3
        assert family.total(device="A") == 2
        assert family.total(kind="control") == 1

    def test_label_mismatch_fails_loudly(self):
        registry = MetricsRegistry()
        family = registry.counter("frames", labelnames=("device",))
        with pytest.raises(MetricError):
            family.labels(node="A")
        with pytest.raises(MetricError):
            family.inc()  # labeled family has no solo child

    def test_redeclare_same_signature_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("frames", labelnames=("device",))
        second = registry.counter("frames", labelnames=("device",))
        assert first is second

    def test_redeclare_different_signature_raises(self):
        registry = MetricsRegistry()
        registry.counter("frames", labelnames=("device",))
        with pytest.raises(MetricError):
            registry.histogram("frames", labelnames=("device",))
        with pytest.raises(MetricError):
            registry.counter("frames", labelnames=("device", "kind"))

    def test_unknown_metric_lookup_raises(self):
        with pytest.raises(MetricError):
            MetricsRegistry().get("ghost")


class TestExposition:
    def build(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "dvm_frames", "frames by device", labelnames=("device",)
        )
        counter.labels(device="A").inc(3)
        hist = registry.histogram("proc_seconds", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(9.0)
        registry.counter("up").inc()
        return registry

    def test_text_exposition_follows_prometheus_conventions(self):
        text = self.build().render_text()
        assert "# HELP dvm_frames frames by device" in text
        assert "# TYPE dvm_frames counter" in text
        assert 'dvm_frames{device="A"} 3' in text
        assert "# TYPE proc_seconds histogram" in text
        assert 'proc_seconds_bucket{le="1"} 1' in text
        assert 'proc_seconds_bucket{le="+Inf"} 2' in text
        assert "proc_seconds_count 2" in text
        assert "up 1" in text


class TestSharedSchema:
    def test_install_is_idempotent_and_complete(self):
        registry = MetricsRegistry()
        first = install_dvm_schema(registry)
        second = install_dvm_schema(registry)
        assert set(registry.names()) == set(DVM_METRIC_NAMES)
        for name in DVM_METRIC_NAMES:
            assert first[name] is second[name]

    def test_two_installs_agree_on_signatures(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        install_dvm_schema(left)
        install_dvm_schema(right)
        assert {
            family.name: family.signature() for family in left.families()
        } == {family.name: family.signature() for family in right.families()}

    def test_default_buckets_cover_micro_to_minute(self):
        assert DEFAULT_BUCKETS[0] <= 1e-6
        assert DEFAULT_BUCKETS[-1] >= 60.0


class TestLabelEscaping:
    """Satellite bugfix: Prometheus-compliant label value escaping."""

    HOSTILE = 'rack"7\\core\nr0'

    def test_hostile_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("dvm_frames", labelnames=("device",))
        counter.labels(device=self.HOSTILE).inc(3)
        text = registry.render_text()
        assert (
            'dvm_frames{device="rack\\"7\\\\core\\nr0"} 3' in text
        )
        # No raw newline or unescaped quote may survive inside a label.
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_hostile_label_round_trips_through_the_parser(self):
        from repro.obs.collector import parse_prometheus_text

        registry = MetricsRegistry()
        counter = registry.counter("dvm_frames", labelnames=("device",))
        counter.labels(device=self.HOSTILE).inc(3)
        parsed = parse_prometheus_text(registry.render_text())
        assert parsed["dvm_frames"] == {(("device", self.HOSTILE),): 3.0}

    def test_benign_labels_render_unchanged(self):
        registry = MetricsRegistry()
        counter = registry.counter("dvm_frames", labelnames=("device",))
        counter.labels(device="INet2-r0").inc()
        assert 'dvm_frames{device="INet2-r0"} 1' in registry.render_text()
