"""Tests for the metrics registry and its JSON exporter."""

import json

import pytest

from repro.obs import default_obs
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TickClock,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("jobs_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counters_only_go_up(self):
        counter = Counter("jobs_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labels_children(self):
        counter = Counter("drops_total", labelnames=("reason",))
        counter.labels(reason="broken_apk").inc(3)
        counter.labels("broken_apk").inc()
        counter.labels(reason="app_not_found").inc()
        assert counter.labels(reason="broken_apk").value == 4
        assert counter.labels(reason="app_not_found").value == 1

    def test_parent_with_labels_rejects_direct_inc(self):
        counter = Counter("drops_total", labelnames=("reason",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_unknown_label_rejected(self):
        counter = Counter("drops_total", labelnames=("reason",))
        with pytest.raises(MetricError):
            counter.labels(nope="x")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("in_flight")
        gauge.set(10)
        gauge.inc(2)
        gauge.inc(-1)
        assert gauge.value == 11


class TestHistogram:
    def test_observe_buckets(self):
        hist = Histogram("latency", buckets=(1, 5, 10))
        for value in (0.5, 3, 7, 100):
            hist.observe(value)
        counts = hist.bucket_counts()
        assert counts[1.0] == 1
        assert counts[5.0] == 2
        assert counts[10.0] == 3
        assert counts[float("inf")] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(110.5)

    def test_default_buckets(self):
        hist = Histogram("latency")
        assert hist.buckets == tuple(sorted(DEFAULT_BUCKETS))


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total")
        assert registry.counter("a_total") is first

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(MetricError):
            registry.gauge("a_total")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", labelnames=("x",))
        with pytest.raises(MetricError):
            registry.counter("a_total", labelnames=("y",))

    def test_value_helper(self):
        registry = MetricsRegistry()
        registry.counter("plain").inc(2)
        registry.counter("labelled", labelnames=("k",)).labels(k="v").inc()
        assert registry.value("plain") == 2
        assert registry.value("labelled", k="v") == 1
        assert registry.value("labelled", k="absent") == 0
        assert registry.value("missing_metric") == 0

    def test_default_registry_is_process_global(self):
        assert default_obs().registry is REGISTRY


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("apps_total", "Apps seen.").inc(7)
    drops = registry.counter("drops_total", "Drops.", ("reason",))
    drops.labels(reason="broken_apk").inc(3)
    drops.labels(reason="app not found").inc(1)  # label value with a space
    registry.gauge("queue_depth").set(2.5)
    hist = registry.histogram("visit_endpoints", "Endpoints.",
                              buckets=(1, 5, 10))
    for value in (0, 4, 9, 50):
        hist.observe(value)
    return registry


class TestJsonExporter:
    def test_round_trip(self):
        registry = _populated_registry()
        rebuilt = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.as_dict())))
        assert rebuilt.as_dict() == registry.as_dict()
        assert rebuilt.value("apps_total") == 7
        assert rebuilt.value("drops_total", reason="broken_apk") == 3
        hist = rebuilt.get("visit_endpoints")
        assert hist.count == 4
        assert hist.bucket_counts()[5.0] == 2


class TestTickClock:
    def test_deterministic_advance(self):
        clock = TickClock(step=0.5)
        assert [clock() for _ in range(3)] == [0.0, 0.5, 1.0]
        fresh = TickClock(step=0.5)
        assert [fresh() for _ in range(3)] == [0.0, 0.5, 1.0]
