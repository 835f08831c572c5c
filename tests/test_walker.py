"""Unit tests for the page-table walker and walk cache."""

import pytest

from repro.errors import ConfigError
from repro.vm.walker import PageTableWalker, PageWalkCache


class TestPageWalkCache:
    def test_first_access_misses_then_hits(self):
        cache = PageWalkCache(4)
        assert not cache.lookup(0)
        assert cache.lookup(1)  # same 512-page region
        assert cache.hits == 1
        assert cache.misses == 1

    def test_different_regions_miss(self):
        cache = PageWalkCache(4)
        cache.lookup(0)
        assert not cache.lookup(512)

    def test_lru_capacity(self):
        cache = PageWalkCache(2)
        cache.lookup(0)       # region 0
        cache.lookup(512)     # region 1
        cache.lookup(1024)    # region 2 evicts region 0
        assert not cache.lookup(0)

    def test_zero_entries_always_misses(self):
        cache = PageWalkCache(0)
        assert not cache.lookup(0)
        assert not cache.lookup(0)


class TestWalker:
    def make(self, slots=2, levels=4, latency=100, cache=0):
        return PageTableWalker(slots, levels, latency, cache)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            self.make(slots=0)
        with pytest.raises(ConfigError):
            self.make(levels=0)

    def test_cold_walk_costs_all_levels(self):
        walker = self.make()
        assert walker.walk(page=0, now=0) == 400

    def test_walk_cache_hit_costs_leaf_only(self):
        walker = self.make(cache=4)
        walker.walk(page=0, now=0)
        # Second walk in the same region: upper levels cached.
        latency = walker.walk(page=1, now=1000)
        assert latency == 100

    def test_concurrent_walks_use_separate_slots(self):
        walker = self.make(slots=2)
        assert walker.walk(0, now=0) == 400
        assert walker.walk(600, now=0) == 400  # second slot, no queueing

    def test_queueing_when_slots_busy(self):
        walker = self.make(slots=1)
        assert walker.walk(0, now=0) == 400
        # Issued at 0 too, but the only slot is busy until 400.
        assert walker.walk(600, now=0) == 800
        assert walker.total_queue_cycles == 400

    def test_slots_free_over_time(self):
        walker = self.make(slots=1)
        walker.walk(0, now=0)
        assert walker.walk(600, now=500) == 400  # slot already free

    def test_same_page_walks_coalesce(self):
        walker = self.make(slots=2)
        first = walker.walk(0, now=0)
        assert first == 400
        # A second request for the same page mid-walk waits for the first
        # walk instead of occupying another slot.
        assert walker.walk(0, now=100) == 300
        assert walker.coalesced_walks == 1
        assert walker.walks == 1
        # A different page still gets its own slot immediately.
        assert walker.walk(600, now=100) == 400

    def test_completed_walk_does_not_coalesce(self):
        walker = self.make(slots=1, cache=0)
        walker.walk(0, now=0)
        # Long after completion: a fresh walk is issued.
        assert walker.walk(0, now=1000) == 400
        assert walker.coalesced_walks == 0
        assert walker.walks == 2

    def test_inflight_table_stays_bounded(self):
        walker = self.make(slots=4)
        for page in range(200):
            walker.walk(page * 600, now=page * 10_000)
        assert len(walker._inflight) <= 4 * walker.max_concurrent_walks + 1
