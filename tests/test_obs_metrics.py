"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.as_dict() == {"value": 5}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge()
        g.set(10)
        g.inc(-3)
        assert g.value == 7


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        a = reg.counter("crawl.retries", domain="x")
        b = reg.counter("crawl.retries", domain="x")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("runs", stage="crawl").inc(2)
        reg.counter("runs", stage="nsfv").inc(3)
        snap = {tuple(m["labels"].items()): m["value"] for m in reg.snapshot()}
        assert snap == {(("stage", "crawl"),): 2, (("stage", "nsfv"),): 3}

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("m", x="1", y="2")
        b = reg.counter("m", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing", other="label")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_snapshot_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.gauge("b.gauge").set(1)
        reg.counter("a.counter").inc()
        reg.counter("c.counter", stage="x").inc()
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a.counter", "b.gauge", "c.counter"]
        json.dumps(snap)  # must be JSON-serialisable as-is
        assert len(reg) == 3

    def test_value_reads_without_creating(self):
        reg = MetricsRegistry()
        reg.gauge("labelled", stage="x").set(2)
        assert reg.value("labelled", stage="x") == 2
        assert reg.value("labelled") is None and reg.value("never") is None
        assert len(reg) == 1

