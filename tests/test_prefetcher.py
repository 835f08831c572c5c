"""Unit tests for the tree-based prefetcher."""

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.errors import ConfigError
from repro.gpu.config import UvmConfig
from repro.uvm.prefetcher import NoPrefetcher, TreePrefetcher, make_prefetcher

NONE_RESIDENT = frozenset()
ALL_VALID = None  # no allocation restriction


class TestNoPrefetcher:
    def test_returns_nothing(self):
        assert NoPrefetcher().expand([1, 2, 3], NONE_RESIDENT, ALL_VALID) == []
        assert NoPrefetcher().expand([1], NONE_RESIDENT, ALL_VALID, limit=4) == []


class TestTreePrefetcher:
    def test_rejects_bad_region(self):
        with pytest.raises(ConfigError):
            TreePrefetcher(12, 0.5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            TreePrefetcher(16, 0.0)

    def test_single_fault_in_cold_region_no_prefetch(self):
        pf = TreePrefetcher(8, 0.5)
        assert pf.expand([0], NONE_RESIDENT, ALL_VALID) == []

    def test_buddy_pulled_in_when_pair_dense(self):
        # Pages 0 faulted + 1 resident: the 2-page node is 100% covered
        # already; the 4-page node {0,1,2,3} is 50% covered (not >50%).
        pf = TreePrefetcher(8, 0.5)
        resident = {1, 2}

        # {0,1} covered; {2} resident -> node {0..3} has 3/4 > 0.5: fetch 3.
        extra = pf.expand([0], resident, ALL_VALID)
        assert 3 in extra

    def test_full_region_cascade(self):
        # 7 of 8 pages resident, faulting the last: nothing left to fetch.
        pf = TreePrefetcher(8, 0.5)
        resident = set(range(1, 8))
        assert pf.expand([0], resident, ALL_VALID) == []

    def test_respects_allocation_boundaries(self):
        pf = TreePrefetcher(8, 0.5)
        valid = {0, 1, 2, 3}  # only half the region backs an allocation

        extra = pf.expand([0, 1, 2], NONE_RESIDENT, valid)
        # {0,1,2} faulted of 4 valid -> 3/4 > 0.5 -> fetch page 3 only.
        assert extra == [3]

    def test_accepts_dict_key_views(self):
        # The runtime passes the page table's live frame-key view.
        pf = TreePrefetcher(8, 0.5)
        frames = {1: 10, 2: 11}
        extra = pf.expand([0], frames.keys(), ALL_VALID)
        assert 3 in extra

    def test_multiple_regions_handled_independently(self):
        pf = TreePrefetcher(4, 0.5)
        extra = pf.expand([0, 1, 4, 5], NONE_RESIDENT, ALL_VALID)
        # Each region half-covered (2/4 == 0.5, not >): no prefetch.
        assert extra == []
        extra = pf.expand([0, 1, 2, 4, 5, 6], NONE_RESIDENT, ALL_VALID)
        assert extra == [3, 7]

    def test_prefetched_pages_counter(self):
        # The run's prefetch count is the sum of what each batch kept
        # after the runtime's free-frame cut, on a cell where memory is
        # full on most batches.
        wl = build_workload("BFS-TTC", scale="tiny", seed=0)
        config = systems.by_name("TO+UE").configure(wl, ratio=0.5)
        result = GpuUvmSimulator(wl, config).run()
        records = result.batch_stats.records
        assert result.prefetched_pages > 0
        assert result.prefetched_pages == sum(r.prefetched_pages for r in records)

    def test_limit_keeps_lowest_pages(self):
        pf = TreePrefetcher(16, 0.5)
        extra = pf.expand(list(range(9)), NONE_RESIDENT, ALL_VALID, limit=3)
        assert extra == [9, 10, 11]

    def test_zero_limit_skips_the_tree_but_counts_regions(self):
        pf = TreePrefetcher(4, 0.5)
        assert pf.expand([0, 1, 2, 8], NONE_RESIDENT, ALL_VALID, limit=0) == []
        assert pf.last_regions == 2

    def test_dense_faults_fill_region(self):
        pf = TreePrefetcher(16, 0.5)
        extra = pf.expand(list(range(9)), NONE_RESIDENT, ALL_VALID)
        assert extra == list(range(9, 16))


def test_factory():
    assert isinstance(make_prefetcher(UvmConfig(prefetcher="none")), NoPrefetcher)
    tree = make_prefetcher(UvmConfig(prefetcher="tree"))
    assert isinstance(tree, TreePrefetcher)
    # 2 MB region of 64 KB pages.
    assert tree.pages_per_region == 32
