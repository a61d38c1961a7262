"""The metrics registry: counters, gauges, histogram percentiles, text dump."""

import math
import threading

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_histogram_summary(self):
        h = Histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == 5050
        assert snap["min"] == 1 and snap["max"] == 100
        assert snap["p50"] == 50
        assert snap["p95"] == 95
        assert snap["p99"] == 99

    def test_histogram_empty(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0
        assert math.isnan(snap["p50"]) and math.isnan(snap["min"])

    def test_histogram_reservoir_keeps_recent_exact_totals(self):
        h = Histogram("ring", max_samples=10)
        for v in range(100):
            h.observe(v)
        snap = h.snapshot()
        # totals are lifetime-exact ...
        assert snap["count"] == 100
        assert snap["sum"] == sum(range(100))
        assert snap["min"] == 0 and snap["max"] == 99
        # ... percentiles reflect the newest window (90..99)
        assert snap["p50"] >= 90

    def test_percentile_nearest_rank(self):
        assert percentile([1.0], 0.99) == 1.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.95) == 4.0
        assert math.isnan(percentile([], 0.5))

    def test_thread_safety_under_contention(self):
        h = Histogram("contended")
        c = Counter("contended_count")

        def worker():
            for _ in range(1000):
                h.observe(1.0)
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 8000
        assert c.value == 8000
        assert h.snapshot()["sum"] == 8000


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_is_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("jobs").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("wait").observe(0.5)
        snap = reg.snapshot()
        assert snap["jobs"] == 3
        assert snap["depth"] == 2
        assert snap["wait"]["count"] == 1
        json.dumps(snap)  # must serialize

    def test_text_dump_prometheus_shape(self):
        reg = MetricsRegistry(prefix="serve")
        reg.counter("jobs_submitted", help="jobs admitted").inc(7)
        reg.gauge("queue_depth").set(3)
        h = reg.histogram("service_seconds")
        h.observe(0.25)
        text = reg.render_text()
        assert "# TYPE serve_jobs_submitted counter" in text
        assert "serve_jobs_submitted 7" in text
        assert "# HELP serve_jobs_submitted jobs admitted" in text
        assert "serve_queue_depth 3" in text
        assert 'serve_service_seconds{quantile="0.5"} 0.25' in text
        assert "serve_service_seconds_count 1" in text
        assert text.endswith("\n")
