"""GPU physical memory manager.

Owns the pool of page frames, the replacement policy, page pinning for
in-flight migrations, and the lifetime/premature-eviction bookkeeping that
feeds the Thread Oversubscription controller (Section 4.1) and Figure 15.

Premature eviction: a page evicted earlier than it should be, for which
the GPU generates a fault again later.  We record the set of evicted pages
and count a refault as premature when the page had previously been
resident.
"""

from __future__ import annotations

from repro.errors import ConfigError, SimulationError
from repro.uvm.replacement import ReplacementPolicy


class GpuMemoryManager:
    """Frame pool + replacement + lifetime accounting."""

    def __init__(self, frames: int | None, policy: ReplacementPolicy) -> None:
        if frames is not None and frames <= 0:
            raise ConfigError("frame count must be positive (or None)")
        self.capacity = frames
        self.policy = policy
        self._free_frames: list[int] = (
            list(range(frames - 1, -1, -1)) if frames is not None else []
        )
        self._next_unbounded_frame = 0
        self._alloc_time: dict[int, int] = {}
        self._pinned: set[int] = set()
        self._ever_evicted: set[int] = set()
        self._dirty: set[int] = set()

        # Statistics.
        self.allocations = 0
        self.evictions = 0
        self.premature_refaults = 0
        #: Sum of evicted pages' lifetimes in cycles, beside ``evictions``:
        #: the lifetime monitor's window mean differences the two.
        self.lifetime_total = 0

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def unlimited(self) -> bool:
        return self.capacity is None

    @property
    def resident_pages(self) -> int:
        return len(self._alloc_time)

    @property
    def free_frames(self) -> int:
        if self.unlimited:
            return 1 << 30
        return len(self._free_frames)

    @property
    def occupancy_pct(self) -> float:
        """Resident pages as a percentage of capacity (0.0 if unlimited)."""
        if self.unlimited or not self.capacity:
            return 0.0
        return 100.0 * len(self._alloc_time) / self.capacity

    # ------------------------------------------------------------------
    # Allocation / eviction
    # ------------------------------------------------------------------
    def allocate(self, page: int, now: int) -> int:
        """Allocate a frame for ``page`` (``alloc_root_chunk()``).

        The caller must have freed a frame first if at capacity — the
        serialization the paper analyses lives in the eviction strategies,
        not here.
        """
        if page in self._alloc_time:
            raise SimulationError(
                "page already has a frame (double allocate)",
                page=hex(page),
                allocated_at=self._alloc_time[page],
                now=now,
            )
        if self.unlimited:
            frame = self._next_unbounded_frame
            self._next_unbounded_frame += 1
        else:
            if not self._free_frames:
                raise SimulationError(
                    "allocate() with no free frame; evict first",
                    page=hex(page),
                    resident=len(self._alloc_time),
                    capacity=self.capacity,
                    now=now,
                )
            frame = self._free_frames.pop()
        self._alloc_time[page] = now
        self._dirty.discard(page)  # a fresh copy starts clean
        self.policy.insert(page)
        self.allocations += 1
        return frame

    def evict(self, page: int, now: int) -> int:
        """Evict ``page``; returns its lifetime in cycles."""
        if page in self._pinned:
            raise SimulationError(
                "page is pinned and cannot be evicted",
                page=hex(page),
                pinned=len(self._pinned),
                now=now,
            )
        try:
            allocated_at = self._alloc_time.pop(page)
        except KeyError:
            raise SimulationError(
                "cannot evict a page that is not resident",
                page=hex(page),
                now=now,
            ) from None
        self.policy.remove(page)
        self._ever_evicted.add(page)
        self._dirty.discard(page)
        self.evictions += 1
        lifetime = now - allocated_at
        self.lifetime_total += lifetime
        return lifetime

    def release_frame(self, frame: int) -> None:
        """Return a frame to the free pool after its eviction transfer."""
        if not self.unlimited:
            self._free_frames.append(frame)

    def pick_victim(self) -> int:
        """Choose the next eviction victim (LRU head, skipping pinned)."""
        return self.policy.pick_victim(self._pinned)

    def has_victim(self) -> bool:
        try:
            self.policy.pick_victim(self._pinned)
            return True
        except SimulationError:
            return False

    # ------------------------------------------------------------------
    # Pinning (pages being migrated in the current batch)
    # ------------------------------------------------------------------
    def pin(self, page: int) -> None:
        self._pinned.add(page)

    def unpin(self, page: int) -> None:
        self._pinned.discard(page)

    def is_pinned(self, page: int) -> bool:
        return page in self._pinned

    # ------------------------------------------------------------------
    # Access + fault bookkeeping
    # ------------------------------------------------------------------
    def mark_dirty(self, page: int) -> None:
        """A store hit the resident page: its eviction needs a writeback."""
        if page in self._alloc_time:
            self._dirty.add(page)

    def is_dirty(self, page: int) -> bool:
        return page in self._dirty

    def on_fault(self, page: int) -> None:
        """Called when a page fault is raised; counts premature refaults."""
        if page in self._ever_evicted:
            self.premature_refaults += 1

    @property
    def premature_eviction_rate(self) -> float:
        """Fraction of evictions that later caused a refault (Figure 15)."""
        if not self.evictions:
            return 0.0
        return self.premature_refaults / self.evictions

    def is_resident(self, page: int) -> bool:
        return page in self._alloc_time

    # ------------------------------------------------------------------
    # Introspection (invariant checking, diagnostics)
    # ------------------------------------------------------------------
    def resident_set(self) -> frozenset[int]:
        """The pages currently holding frames."""
        return frozenset(self._alloc_time)

    def pinned_pages(self) -> frozenset[int]:
        """Pages pinned against eviction (in-flight batch migrations)."""
        return frozenset(self._pinned)

    def free_frame_ids(self) -> tuple[int, ...]:
        """The free frame pool (empty for unlimited memory)."""
        return tuple(self._free_frames)
