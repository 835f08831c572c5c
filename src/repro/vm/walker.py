"""Highly threaded page-table walker with a page-walk cache.

One walker is shared across all SMs and supports up to 64 concurrent walks
(Power et al., HPCA'14; Table 1).  A walk of an N-level page table costs one
memory access per level; accesses to upper-level entries have strong
temporal locality, which the page-walk cache exploits (Barr et al.,
ISCA'10), reducing a hot walk to a single leaf access.

The walker is a pure *timing* model: callers ask how long a walk issued at
time ``t`` takes, and the walker accounts for slot contention by tracking
per-slot busy-until times.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapreplace

from repro.errors import ConfigError


class PageWalkCache:
    """LRU cache of upper-level page-table entries, keyed by region.

    A hit means all non-leaf levels are cached, so the walk only touches
    the leaf PTE.
    """

    #: Number of leaf pages covered by one upper-level entry (one L3 PTE
    #: covers 512 leaf entries in an x86-style table; we follow that).
    REGION_PAGES = 512

    def __init__(self, entries: int) -> None:
        if entries < 0:
            raise ConfigError("walk cache entries must be non-negative")
        self.entries = entries
        self._cache: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        """Checkpoint pickling: the cached regions as a tuple, LRU
        first, like the TLB and data-cache sets."""
        state = self.__dict__.copy()
        state["_cache"] = tuple(self._cache)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache = OrderedDict.fromkeys(state["_cache"])

    def lookup(self, page: int) -> bool:
        if not self.entries:
            self.misses += 1
            return False
        region = page // self.REGION_PAGES
        if region in self._cache:
            self._cache.move_to_end(region)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[region] = None
        return False


class PageTableWalker:
    """Shared, multi-threaded page-table walker (timing model)."""

    def __init__(
        self,
        max_concurrent_walks: int,
        levels: int,
        memory_latency: int,
        walk_cache_entries: int = 64,
    ) -> None:
        if max_concurrent_walks <= 0:
            raise ConfigError("walker needs at least one walk slot")
        if levels <= 0:
            raise ConfigError("page table needs at least one level")
        self.max_concurrent_walks = max_concurrent_walks
        self.levels = levels
        self.memory_latency = memory_latency
        self.walk_cache = PageWalkCache(walk_cache_entries)
        # Busy-until time per walk slot, kept as a min-heap: the root is
        # always the earliest-available slot, so slot pick is O(log n)
        # instead of a 64-wide linear scan per walk.  Only the multiset
        # of busy-until times matters, never slot identity.
        self._slots = [0] * max_concurrent_walks
        # In-flight walks by page (the MSHR view): concurrent misses to the
        # same page coalesce onto one walk instead of burning more slots.
        self._inflight: dict[int, int] = {}
        self.walks = 0
        self.coalesced_walks = 0
        self.total_queue_cycles = 0

    def walk(self, page: int, now: int) -> int:
        """Issue a walk for ``page`` at time ``now``; return its latency.

        Latency includes queueing for a free walk slot when all 64 are
        busy.  A request for a page whose walk is already in flight
        coalesces via the MSHRs: it waits for that walk, consuming no slot.
        """
        finish = self._inflight.get(page)
        if finish is not None and finish > now:
            self.coalesced_walks += 1
            return finish - now

        self.walks += 1
        if self.walk_cache.lookup(page):
            service = self.memory_latency  # leaf access only
        else:
            service = self.levels * self.memory_latency
        # Earliest-available slot: the heap root.
        slot_free = self._slots[0]
        start = now if now > slot_free else slot_free
        heapreplace(self._slots, start + service)
        queue_delay = start - now
        self.total_queue_cycles += queue_delay
        self._inflight[page] = start + service
        if len(self._inflight) > 4 * self.max_concurrent_walks:
            # Lazy cleanup of completed entries.
            self._inflight = {
                p: t for p, t in self._inflight.items() if t > now
            }
        return queue_delay + service
