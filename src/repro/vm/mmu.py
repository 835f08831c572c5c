"""GPU MMU: the translation front-end each memory access goes through.

Per-access flow (Section 2.2):

1. probe the SM's private L1 TLB;
2. on miss, probe the shared L2 TLB;
3. on miss, issue a page-table walk on the shared walker (coalescing with
   any in-flight walk for the same page via the MSHRs);
4. if the walk finds the page non-resident, the access *faults* — the MMU
   reports non-residency and the caller raises a GPU page fault.

Evictions bump the page-table version, which lazily invalidates stale TLB
entries (shootdown model).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.gpu.config import GpuConfig
from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb
from repro.vm.walker import PageTableWalker


class TranslationResult(NamedTuple):
    """Outcome of translating one page access.

    A NamedTuple rather than a frozen dataclass: one result is built per
    translated page on the warp-issue hot path, and tuple construction
    skips the ``__init__`` + ``object.__setattr__`` round trip (same
    precedent as :class:`repro.uvm.fault_buffer.FaultEntry`).
    """

    resident: bool
    latency: int
    level: str  # "l1", "l2", or "walk"


class GpuMmu:
    """Translation machinery shared by all SMs."""

    def __init__(self, gpu: GpuConfig, page_table: PageTable) -> None:
        self._gpu = gpu
        self.page_table = page_table
        self.l1_tlbs = [
            Tlb(f"l1tlb{i}", gpu.l1_tlb_entries, gpu.l1_tlb_entries)
            for i in range(gpu.num_sms)
        ]
        self.l2_tlb = Tlb("l2tlb", gpu.l2_tlb_entries, gpu.l2_tlb_assoc)
        self.walker = PageTableWalker(
            gpu.max_concurrent_walks,
            gpu.page_table_levels,
            gpu.memory_latency_cycles,
            gpu.walk_cache_entries,
        )
        self.faults_detected = 0

    def translate(self, page: int, sm_id: int, now: int) -> TranslationResult:
        """Translate one virtual page access issued by ``sm_id`` at ``now``."""
        # Per-page shootdown version: only the evicted page's entries go
        # stale, matching targeted invalidation broadcasts.
        version = self.page_table.version_of(page)
        l1 = self.l1_tlbs[sm_id]

        if l1.lookup(page, version):
            return TranslationResult(True, self._gpu.l1_tlb_hit_cycles, "l1")
        resident, latency, level = self.translate_after_l1_miss(
            page, l1, version, now
        )
        return TranslationResult(resident, latency, level)

    def translate_after_l1_miss(
        self, page: int, l1: Tlb, version: int, now: int
    ) -> tuple[bool, int, str]:
        """Continue a translation whose L1 probe already missed.

        The simulator inlines the (overwhelmingly common) L1-hit probe
        into its issue loop and falls back here for misses, so the
        cold path stays in one place and every counter/LRU update is
        shared with :meth:`translate`.  Returns a plain tuple — the hot
        caller unpacks it without building a :class:`TranslationResult`.
        """
        latency = self._gpu.l1_tlb_hit_cycles  # L1 probe cost paid either way
        if self.l2_tlb.lookup(page, version):
            latency += self._gpu.l2_tlb_hit_cycles
            l1.fill(page, version)
            return True, latency, "l2"

        latency += self._gpu.l2_tlb_hit_cycles
        latency += self.walker.walk(page, now)
        if self.page_table.is_resident(page):
            l1.fill(page, version)
            self.l2_tlb.fill(page, version)
            return True, latency, "walk"

        # Walk failed: the page is not resident in GPU memory -> page fault.
        self.faults_detected += 1
        return False, latency, "walk"

    def invalidate(self, page: int) -> None:
        """Targeted invalidation on top of the version-based shootdown."""
        for tlb in self.l1_tlbs:
            tlb.invalidate(page)
        self.l2_tlb.invalidate(page)
