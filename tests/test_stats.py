"""Unit tests for the bucketed histogram."""

import pytest

from repro.sim.stats import Histogram


class TestHistogram:
    def test_rejects_nonpositive_bucket_width(self):
        with pytest.raises(ValueError):
            Histogram("h", 0)

    def test_rejects_negative_sample(self):
        h = Histogram("h", 1.0)
        with pytest.raises(ValueError):
            h.record(-1)

    def test_mean_and_count(self):
        h = Histogram("h", 10)
        for v in (5, 15, 25):
            h.record(v)
        assert h.count == 3
        assert h.mean == pytest.approx(15.0)
        assert h.min == 5
        assert h.max == 25

    def test_bucketing(self):
        h = Histogram("h", 10)
        h.record(3)
        h.record(7)
        h.record(12)
        assert h.buckets[0] == 2
        assert h.buckets[1] == 1

    def test_fraction_in_bucket(self):
        h = Histogram("h", 10)
        h.record(1)
        h.record(2)
        h.record(15)
        assert h.fraction_in_bucket(0) == pytest.approx(2 / 3)
        assert h.fraction_in_bucket(9) == 0.0

    def test_sorted_buckets_ascending(self):
        h = Histogram("h", 5)
        for v in (22, 3, 11):
            h.record(v)
        edges = [e for e, _ in h.sorted_buckets()]
        assert edges == sorted(edges)

    def test_percentile_basics(self):
        h = Histogram("h", 1)
        for v in range(100):
            h.record(v)
        assert h.percentile(0) == 0
        assert h.percentile(50) == pytest.approx(49, abs=1)
        assert h.percentile(100) == 99

    def test_percentile_bounds_checked(self):
        h = Histogram("h", 1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = Histogram("h", 1)
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.fraction_in_bucket(0) == 0.0
