"""Tests for the typed metric registry: label sets, memoisation, export."""

import pytest

from repro.obs.metrics import MetricRegistry
from repro.sim.stats import Histogram


class TestLabelSets:
    def test_counter_memoised_per_label_set(self):
        reg = MetricRegistry()
        a = reg.counter("engine.events", kind="page_arrived")
        b = reg.counter("engine.events", kind="page_arrived")
        c = reg.counter("engine.events", kind="batch_done")
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        reg = MetricRegistry()
        a = reg.counter("x", sm=1, channel="h2d")
        b = reg.counter("x", channel="h2d", sm=1)
        assert a is b

    def test_full_name_renders_sorted_labels(self):
        reg = MetricRegistry()
        m = reg.counter("dma.pages", channel="h2d", sm=0)
        assert m.full_name == "dma.pages{channel=h2d,sm=0}"
        assert reg.counter("plain").full_name == "plain"

    def test_same_name_different_kinds_are_distinct(self):
        reg = MetricRegistry()
        reg.counter("x").inc(5)
        reg.gauge("x").set(9)
        assert len(reg) == 2

    def test_series_and_total_aggregate_across_labels(self):
        reg = MetricRegistry()
        reg.counter("sm.stall_cycles", sm=0).inc(100)
        reg.counter("sm.stall_cycles", sm=1).inc(50)
        reg.gauge("sm.stall_cycles").set(7)  # different kind, excluded
        series = reg.series("sm.stall_cycles", "counter")
        assert len(series) == 2
        assert reg.total("sm.stall_cycles") == 150


class TestKinds:
    def test_counter_inc(self):
        reg = MetricRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_extremes(self):
        reg = MetricRegistry()
        g = reg.gauge("occupancy")
        for v in (3, 9, 1):
            g.set(v)
        assert g.value == 1
        assert g.min == 1
        assert g.max == 9

    def test_histogram_records_and_percentiles(self):
        reg = MetricRegistry()
        h = reg.histogram("latency", bucket_width=10)
        for v in range(100):
            h.record(v)
        assert h.count == 100
        assert h.percentile(100) == 99

    def test_histogram_merge_from(self):
        reg = MetricRegistry()
        src = Histogram("lat", 5)
        for v in (2, 7, 12):
            src.record(v)
        dst = reg.histogram("lat", bucket_width=10)
        dst.merge_from(src)
        dst.record(33)
        assert dst.count == 4
        assert dst.min == 2
        assert dst.max == 33


class TestExportShapes:
    def build(self):
        reg = MetricRegistry()
        reg.counter("uvm.evictions").inc(3)
        g = reg.gauge("fault_buffer.occupancy")
        g.set(10)
        g.set(4)
        h = reg.histogram("uvm.batch_cycles", bucket_width=100)
        for v in (50, 150, 950):
            h.record(v)
        return reg

    def test_snapshot_flattens_with_tails(self):
        snap = self.build().snapshot()
        assert snap["uvm.evictions"] == 3
        assert snap["fault_buffer.occupancy"] == 4
        assert snap["fault_buffer.occupancy.max"] == 10
        assert snap["uvm.batch_cycles.count"] == 3
        assert snap["uvm.batch_cycles.min"] == 50
        assert snap["uvm.batch_cycles.max"] == 950
        assert snap["uvm.batch_cycles.p50"] == 100
        assert 50 <= snap["uvm.batch_cycles.p99"] <= 950

    def test_rows_one_per_metric(self):
        rows = self.build().rows()
        assert [r["type"] for r in rows] == ["counter", "gauge", "histogram"]
        hist = rows[-1]
        assert {"count", "mean", "min", "max", "p50", "p99"} <= hist.keys()
        assert hist["labels"] == {}

    def test_iteration_is_sorted_and_stable(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.counter("a")
        reg.gauge("a")
        names = [(m.kind, m.name) for m in reg]
        assert names == sorted(names)

    def test_empty_histogram_snapshot_is_zero(self):
        reg = MetricRegistry()
        reg.histogram("empty")
        snap = reg.snapshot()
        assert snap["empty.count"] == 0
        assert snap["empty.min"] == 0.0
        assert snap["empty.p99"] == 0.0


class TestStatsPercentileFix:
    """Satellite: Histogram.percentile interpolation + clamping."""

    def test_top_percentile_is_true_max(self):
        h = Histogram("h", 1000)
        for v in (10, 20, 999):
            h.record(v)
        # Previously returned the bucket lower edge (0) for every quantile.
        assert h.percentile(100) == 999
        assert h.percentile(99) <= 999
        assert h.percentile(0) >= 10

    def test_clamped_to_observed_range(self):
        h = Histogram("h", 100)
        h.record(42)
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 42

    def test_interpolates_within_bucket(self):
        h = Histogram("h", 100)
        for v in range(100):
            h.record(v)
        assert h.percentile(50) == pytest.approx(49, abs=1)

    def test_rejects_out_of_range(self):
        h = Histogram("h", 1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
