"""Data-cache timing model.

Set-associative LRU caches over 128-byte lines: a 16 KB 4-way private L1
per SM and a 2 MB 16-way shared L2 (Table 1).  The model answers a single
question per coalesced access — which level serves it — and charges the
corresponding latency.  Contents are tracked exactly (line tags), but there
is no MSHR/bank model at this level; DRAM contention is outside the scope
of the paper's µs-scale effects.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Iterable
from itertools import cycle, islice, repeat

from repro.errors import ConfigError
from repro.gpu.config import LINE_SHIFT, LINE_SIZE, GpuConfig


class Cache:
    """Set-associative LRU cache keyed by line number.

    Each set is an ``OrderedDict`` in LRU order, so a hit is one
    ``move_to_end``: the shape of the shared 16-way L2, most of whose
    accesses hit.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int) -> None:
        lines = size_bytes // LINE_SIZE
        if lines <= 0 or assoc <= 0 or lines % assoc:
            raise ConfigError(
                f"invalid cache geometry for {name}: {size_bytes}B, {assoc}-way"
            )
        self.name = name
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets = self._new_sets(repeat((), self.num_sets))
        self.hits = 0
        self.misses = 0

    def _new_sets(self, sets: Iterable[tuple]) -> list[OrderedDict[int, None]]:
        """One set per tuple of lines in ``sets``, keys in LRU order
        (first = LRU)."""
        return list(map(OrderedDict.fromkeys, sets))

    def __getstate__(self) -> dict:
        """Checkpoint pickling: each set as a plain tuple of its lines,
        LRU first.

        ``pickle`` reduces every ``OrderedDict`` (and ``deque``) through
        ``copyreg._slotnames``, one Python call per set, since a C type
        cannot cache ``__slotnames__``; over the L2's 1,024 sets that was
        most of a checkpoint write.  Tuples pickle in C.
        """
        state = self.__dict__.copy()
        state["_sets"] = list(map(tuple, self._sets))
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sets = self._new_sets(state["_sets"])

    def access(self, line: int) -> bool:
        """Probe-and-fill: returns True on hit; misses allocate the line."""
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.assoc:
            entries.popitem(last=False)
        entries[line] = None
        return False

    def invalidate_page(self, page: int, page_shift: int) -> None:
        """Drop every line belonging to ``page`` (page was evicted): one
        C-level pass pops each of the page's lines from its set."""
        owners, lines = self._page_sets(page, page_shift)
        deque(map(OrderedDict.pop, owners, lines, repeat(None, len(lines))), 0)

    def _page_sets(self, page: int, page_shift: int) -> tuple:
        """``(owners, lines)``: the page's lines and, in step, the set each
        one lives in.  Line ``first + i`` lives in set ``(first + i) %
        num_sets``, so the sets are consecutive from ``start``, wrapping
        round when the page has more lines than the cache has sets.
        """
        shift = page_shift - LINE_SHIFT
        n = 1 << shift
        first = page << shift
        sets = self._sets
        start = first % self.num_sets
        if start + n <= self.num_sets:
            owners = sets[start:start + n]
        else:
            owners = islice(cycle(sets), start, start + n)
        return owners, range(first, first + n)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class L1Cache(Cache):
    """The private per-SM L1: each set is a ``deque(maxlen=assoc)`` in LRU
    order (left end = LRU).

    Most L1 accesses of the irregular workloads miss, and a miss is one
    ``append``: the bounded deque drops the LRU line itself.  A hit is
    ``remove`` + ``append`` over at most ``assoc`` lines.  The issue loop
    (:meth:`repro.simulator.GpuUvmSimulator._execute_op`) inlines
    :meth:`access`; this class is its specification.
    """

    def _new_sets(self, sets: Iterable[tuple]) -> list[deque[int]]:
        return list(map(deque, sets, repeat(self.assoc)))

    def access(self, line: int) -> bool:
        entries = self._sets[line % self.num_sets]
        if line in entries:
            entries.remove(line)
            entries.append(line)
            self.hits += 1
            return True
        self.misses += 1
        entries.append(line)
        return False

    def invalidate_page(self, page: int, page_shift: int) -> None:
        """Drop every line belonging to ``page``: one membership test per
        (owner set, line) pair, and a ``remove`` for the few present."""
        owners, lines = self._page_sets(page, page_shift)
        for entries, line in zip(owners, lines):
            if line in entries:
                entries.remove(line)


class CacheHierarchy:
    """Per-SM L1s over a shared L2, returning access latency per line."""

    def __init__(self, gpu: GpuConfig) -> None:
        self._gpu = gpu
        self.l1 = [
            L1Cache(f"l1d{i}", gpu.l1_cache_bytes, gpu.l1_cache_assoc)
            for i in range(gpu.num_sms)
        ]
        self.l2 = Cache("l2d", gpu.l2_cache_bytes, gpu.l2_cache_assoc)

    def access(self, line: int, sm_id: int) -> int:
        """Latency (cycles) to service one line access from ``sm_id``.

        L1 misses are coalesced before accessing L2 (Table 1), which the
        single probe per unique line already models.
        """
        if self.l1[sm_id].access(line):
            return self._gpu.l1_hit_cycles
        if self.l2.access(line):
            return self._gpu.l2_hit_cycles
        return self._gpu.memory_latency_cycles

    def access_lines(self, lines: tuple[int, ...], sm_id: int) -> int:
        """Latency of a coalesced access touching several unique lines.

        Lines are fetched in parallel by the memory system; the op completes
        when the slowest line returns.
        """
        latency = 0
        for line in lines:
            latency = max(latency, self.access(line, sm_id))
        return latency

    def invalidate_page(self, page: int, page_shift: int) -> None:
        for cache in self.l1:
            cache.invalidate_page(page, page_shift)
        self.l2.invalidate_page(page, page_shift)
