"""Unit tests for the data-cache hierarchy."""

import copy
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu.caches import Cache, CacheHierarchy, L1Cache
from repro.gpu.config import LINE_SHIFT, LINE_SIZE, GpuConfig


def invalidate_page_loop(cache: Cache, page: int, page_shift: int) -> None:
    """Reference shootdown: drop the page's lines one at a time, from
    ``OrderedDict`` or deque sets."""
    lines_per_page = 1 << (page_shift - LINE_SHIFT)
    first = page << (page_shift - LINE_SHIFT)
    for line in range(first, first + lines_per_page):
        entries = cache._sets[line % cache.num_sets]
        if line in entries:
            if isinstance(entries, deque):
                entries.remove(line)
            else:
                del entries[line]


def contents(cache: Cache) -> list[list[int]]:
    """Every set's lines, LRU first."""
    return [list(s) for s in cache._sets]


class TestCache:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            Cache("c", 1000, 4)

    def test_miss_allocates(self):
        cache = Cache("c", 1024, 2)
        assert not cache.access(1)
        assert cache.access(1)

    def test_lru_within_set(self):
        cache = Cache("c", 2 * 128, 2)  # 2 lines, 1 set
        cache.access(1)
        cache.access(2)
        cache.access(1)   # 1 MRU
        cache.access(3)   # evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_invalidate_page_drops_lines(self):
        cache = Cache("c", 64 * 1024, 4)
        page_shift = 12  # 4 KB page = 32 lines
        first_line = 1 << (page_shift - LINE_SHIFT)
        cache.access(first_line)
        cache.access(first_line + 5)
        cache.invalidate_page(1, page_shift)
        assert not cache.access(first_line)

    def test_line_shift_matches_line_size(self):
        assert 1 << LINE_SHIFT == LINE_SIZE

    def test_hit_rate(self):
        cache = Cache("c", 1024, 2)
        cache.access(1)
        cache.access(1)
        assert cache.hit_rate == pytest.approx(0.5)


class TestHierarchy:
    @pytest.fixture
    def hierarchy(self):
        return CacheHierarchy(GpuConfig(num_sms=2))

    def test_cold_access_pays_memory_latency(self, hierarchy):
        gpu = GpuConfig()
        assert hierarchy.access(1, sm_id=0) == gpu.memory_latency_cycles

    def test_l1_hit_after_access(self, hierarchy):
        gpu = GpuConfig()
        hierarchy.access(1, 0)
        assert hierarchy.access(1, 0) == gpu.l1_hit_cycles

    def test_cross_sm_access_hits_shared_l2(self, hierarchy):
        gpu = GpuConfig()
        hierarchy.access(1, 0)
        assert hierarchy.access(1, 1) == gpu.l2_hit_cycles

    def test_multi_line_access_takes_max(self, hierarchy):
        gpu = GpuConfig()
        hierarchy.access(1, 0)
        latency = hierarchy.access_lines((1, 99), 0)
        assert latency == gpu.memory_latency_cycles

    def test_empty_lines_cost_nothing(self, hierarchy):
        assert hierarchy.access_lines((), 0) == 0

    def test_l1s_use_deque_sets(self, hierarchy):
        assert all(type(cache) is L1Cache for cache in hierarchy.l1)
        assert type(hierarchy.l2) is Cache

    def test_invalidate_page_hits_all_levels(self, hierarchy):
        gpu = GpuConfig()
        page_shift = 12
        line = 1 << (page_shift - LINE_SHIFT)
        hierarchy.access(line, 0)
        hierarchy.invalidate_page(1, page_shift)
        assert hierarchy.access(line, 0) == gpu.memory_latency_cycles


#: (sets, ways): the sweeps' L1 (16 KB, 4-way) and L2 (2 MB, 16-way), plus
#: a set count that is not a power of two, where a page's lines start
#: mid-array and wrap round.
GEOMETRIES = [(32, 4), (1024, 16), (24, 2)]

#: 4 KB pages (32 lines, tiny scale) and 16 KB pages (128 lines, small
#: scale: more lines per page than the L1 has sets).
PAGE_SHIFTS = [12, 14]


@pytest.mark.parametrize("page_shift", PAGE_SHIFTS)
@pytest.mark.parametrize(("sets", "ways"), GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_invalidate_page_matches_per_line_loop(sets, ways, page_shift, data):
    """The one-pass shootdown leaves every set holding the same keys in
    the same LRU order as popping the page's lines one at a time."""
    check_invalidate_matches_loop(Cache, sets, ways, page_shift, data)


@pytest.mark.parametrize("page_shift", PAGE_SHIFTS)
@pytest.mark.parametrize(("sets", "ways"), GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_l1_invalidate_page_matches_per_line_loop(sets, ways, page_shift, data):
    """The same for the L1's deque sets."""
    check_invalidate_matches_loop(L1Cache, sets, ways, page_shift, data)


def check_invalidate_matches_loop(cls, sets, ways, page_shift, data):
    cache = cls("c", sets * ways * LINE_SIZE, ways)
    lines_per_page = 1 << (page_shift - LINE_SHIFT)
    pages = 6
    accesses = data.draw(
        st.lists(
            st.integers(0, pages * lines_per_page - 1),
            max_size=400,
        )
    )
    for line in accesses:
        cache.access(line)
    oracle = copy.deepcopy(cache)
    for page in data.draw(st.lists(st.integers(0, pages), max_size=4)):
        cache.invalidate_page(page, page_shift)
        invalidate_page_loop(oracle, page, page_shift)
        assert contents(cache) == contents(oracle)


@pytest.mark.parametrize("page_shift", PAGE_SHIFTS)
@pytest.mark.parametrize(("sets", "ways"), GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_l1_cache_matches_ordered_dict_cache(sets, ways, page_shift, data):
    """Under any interleaving of accesses and shootdowns, the L1's deque
    sets hold the same lines in the same LRU order, and count the same
    hits and misses, as ``OrderedDict`` sets of the same geometry."""
    size = sets * ways * LINE_SIZE
    l1 = L1Cache("l1", size, ways)
    oracle = Cache("oracle", size, ways)
    shift = page_shift - LINE_SHIFT
    # Lines crowding a few sets (hits behind the MRU line, evictions) and
    # lines spread over six pages.
    lines = st.one_of(
        st.builds(lambda s, k: s + sets * k, st.integers(0, 1), st.integers(0, ways)),
        st.integers(0, (6 << shift) - 1),
    )
    step = st.tuples(st.sampled_from(["access", "invalidate"]), lines)
    steps = data.draw(st.lists(step, min_size=30, max_size=300))
    for op, line in steps:
        if op == "access":
            assert l1.access(line) == oracle.access(line)
        else:
            l1.invalidate_page(line >> shift, page_shift)
            oracle.invalidate_page(line >> shift, page_shift)
        assert contents(l1) == contents(oracle)
        assert (l1.hits, l1.misses) == (oracle.hits, oracle.misses)


#: A checkpoint's copy: through ``pickle`` or ``copy.deepcopy``.
ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["deepcopy", "pickle"],
)


@ROUND_TRIPS
@pytest.mark.parametrize(("sets", "ways"), GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_l1_cache_survives_copy(sets, ways, round_trip, data):
    """A checkpoint's copy of the L1 keeps its lines, LRU order, counters
    and set bound, and goes on to behave like the original."""
    check_survives_copy(L1Cache, sets, ways, round_trip, data)


@ROUND_TRIPS
@pytest.mark.parametrize(("sets", "ways"), GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cache_survives_copy(sets, ways, round_trip, data):
    """The same for the shared L2's ``OrderedDict`` sets."""
    check_survives_copy(Cache, sets, ways, round_trip, data)


def check_survives_copy(cls, sets, ways, round_trip, data):
    cache = cls("c", sets * ways * LINE_SIZE, ways)
    shift = 12 - LINE_SHIFT
    lines = st.one_of(
        st.builds(lambda s, k: s + sets * k, st.integers(0, 1), st.integers(0, ways)),
        st.integers(0, (6 << shift) - 1),
    )
    step = st.tuples(st.sampled_from(["access", "invalidate"]), lines)
    steps = st.lists(step, max_size=300)

    def run(caches, ops):
        for op, line in ops:
            if op == "access":
                assert len({c.access(line) for c in caches}) == 1
            else:
                for c in caches:
                    c.invalidate_page(line >> shift, 12)

    run([cache], data.draw(steps))
    twin = round_trip(cache)
    assert type(twin) is cls
    assert contents(twin) == contents(cache)
    assert (twin.hits, twin.misses) == (cache.hits, cache.misses)
    assert [type(s) for s in twin._sets] == [type(s) for s in cache._sets]
    maxlen = ways if cls is L1Cache else None
    assert [getattr(s, "maxlen", None) for s in twin._sets] == [maxlen] * sets
    run([twin, cache], data.draw(steps))
    assert contents(twin) == contents(cache)
    assert (twin.hits, twin.misses) == (cache.hits, cache.misses)
