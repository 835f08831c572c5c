"""Set-associative TLB with LRU replacement and shootdown versioning.

Table 1 configures a 64-entry fully associative private L1 TLB per SM and a
1024-entry 32-way shared L2 TLB.  Entries are tagged with the page-table
``version`` at fill time; a version bump (eviction/unmap) implicitly
invalidates all older entries, modelling a broadcast shootdown without
scanning.

Section 5.1's MSHRs ("Each TLB contains the miss-status-holding-registers
(MSHRs) to track in-flight page table walks") are modelled by the walker:
concurrent misses to the same page coalesce into one walk in
:class:`repro.vm.walker.PageTableWalker`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError


class Tlb:
    """One TLB level.

    ``entries`` total entries arranged into ``entries // assoc`` sets; a
    fully associative TLB passes ``assoc == entries``.
    """

    def __init__(self, name: str, entries: int, assoc: int) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc:
            raise ConfigError(f"invalid TLB geometry: {entries} entries, {assoc}-way")
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        # Each set is an OrderedDict page -> fill_version, LRU at the front.
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0

    def __getstate__(self) -> dict:
        """Checkpoint pickling: each set as a plain tuple of
        ``(page, fill_version)`` pairs, LRU first (an ``OrderedDict``
        pickles through one ``copyreg._slotnames`` call per set; see
        :meth:`repro.gpu.caches.Cache.__getstate__`)."""
        state = self.__dict__.copy()
        state["_sets"] = [tuple(entries.items()) for entries in self._sets]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._sets = list(map(OrderedDict, state["_sets"]))

    def _set_for(self, page: int) -> OrderedDict[int, int]:
        return self._sets[page % self.num_sets]

    def lookup(self, page: int, current_version: int) -> bool:
        """Probe the TLB; a stale entry (older version) counts as a miss."""
        entries = self._set_for(page)
        fill_version = entries.get(page)
        if fill_version is None:
            self.misses += 1
            return False
        if fill_version < current_version:
            # Shootdown happened after this entry was filled.
            del entries[page]
            self.stale_hits += 1
            self.misses += 1
            return False
        entries.move_to_end(page)
        self.hits += 1
        return True

    def fill(self, page: int, current_version: int) -> None:
        """Insert a translation, evicting the LRU entry when full."""
        entries = self._set_for(page)
        if page in entries:
            entries.move_to_end(page)
            entries[page] = current_version
            return
        if len(entries) >= self.assoc:
            entries.popitem(last=False)
        entries[page] = current_version

    def invalidate(self, page: int) -> None:
        entries = self._set_for(page)
        entries.pop(page, None)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
