"""Simulated system configuration.

Defaults reproduce Table 1 of the paper:

=====================  =====================================================
GPU core               16 SMs, 1 GHz, 1024 threads per SM, 256 KB register
                       file per SM
Private L1 cache       16 KB, 4-way, LRU
Private L1 TLB         64 entries per core, fully associative, LRU
Shared L2 cache        2 MB total, 16-way, LRU
Shared L2 TLB          1024 entries, 32-way, LRU
Memory                 200-cycle latency
Fault buffer           1024 entries
Fault handling         64 KB pages, 20 us GPU runtime fault handling time,
                       15.75 GB/s PCIe bandwidth
=====================  =====================================================

One simulated cycle equals one nanosecond (1 GHz clock), so latencies given
in microseconds in the paper convert to cycles by multiplying by 1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.config import ChaosConfig
from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB

#: Threads per warp (NVIDIA SIMT width).
WARP_SIZE = 32

#: Cache line size in bytes used for the data-cache model.
LINE_SIZE = 128
#: log2(LINE_SIZE): line number = byte address >> LINE_SHIFT.
LINE_SHIFT = LINE_SIZE.bit_length() - 1


@dataclass(frozen=True)
class GpuConfig:
    """GPU core, cache, and TLB configuration (Table 1)."""

    num_sms: int = 16
    clock_ghz: float = 1.0
    threads_per_sm: int = 1024
    register_file_bytes_per_sm: int = 256 * KB
    max_blocks_per_sm: int = 32
    shared_memory_bytes_per_sm: int = 64 * KB

    # Private L1 data cache (per SM).
    l1_cache_bytes: int = 16 * KB
    l1_cache_assoc: int = 4
    l1_hit_cycles: int = 28

    # Shared L2 data cache.
    l2_cache_bytes: int = 2 * MB
    l2_cache_assoc: int = 16
    l2_hit_cycles: int = 120

    # DRAM.
    memory_latency_cycles: int = 200

    # TLBs.
    l1_tlb_entries: int = 64
    l2_tlb_entries: int = 1024
    l2_tlb_assoc: int = 32
    l1_tlb_hit_cycles: int = 1
    l2_tlb_hit_cycles: int = 10

    # Page table walker (shared across SMs).
    max_concurrent_walks: int = 64
    page_table_levels: int = 4
    walk_cache_entries: int = 64

    # Global-memory bandwidth used for context save/restore (bytes/cycle).
    # 256 bytes/cycle at 1 GHz corresponds to ~256 GB/s of the Titan Xp's
    # 547 GB/s peak being available to the context-switch engine.
    global_memory_bytes_per_cycle: int = 256

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.threads_per_sm % WARP_SIZE:
            raise ConfigError("threads_per_sm must be a multiple of the warp size")
        if self.l2_tlb_entries % self.l2_tlb_assoc:
            raise ConfigError("l2_tlb_entries must be divisible by its associativity")

    @property
    def max_warps_per_sm(self) -> int:
        return self.threads_per_sm // WARP_SIZE

    @property
    def registers_per_sm(self) -> int:
        """Number of 32-bit registers in one SM's register file."""
        return self.register_file_bytes_per_sm // 4


@dataclass(frozen=True)
class UvmConfig:
    """Unified-memory runtime configuration (Table 1, bottom section)."""

    page_size: int = 64 * KB
    fault_buffer_entries: int = 1024

    #: GPU runtime fault handling time in cycles (20 us at 1 GHz).  The
    #: paper uses 20 us as a conservative constant and sweeps 20-50 us in
    #: Figure 18.
    fault_handling_cycles: int = 20_000

    #: Optional per-page component of the fault handling time, modelling
    #: the sort/walk work growing with batch size ("GPU runtime fault
    #: handling time varies depending on the batch size and contiguity").
    fault_handling_per_page_cycles: int = 20

    #: Latency between the GPU raising a page-fault interrupt and the
    #: runtime starting batch processing (top-half ISR dispatch).  Faults
    #: raised in this window still make it into the opening batch, exactly
    #: as the fault buffer drains at batch begin.  The batch-to-batch
    #: fast path (Figure 2 step 5) skips this latency.
    interrupt_latency_cycles: int = 2_000

    #: Host-to-device (CPU->GPU) PCIe bandwidth in GB/s.
    pcie_h2d_gbps: float = 15.75
    #: Device-to-host bandwidth.  Transfers from GPU to CPU memory are
    #: slightly faster than the reverse direction (Li et al., ASPLOS'19),
    #: which is what makes Unobtrusive Eviction fully hidden.
    pcie_d2h_gbps: float = 17.3

    #: GPU device memory capacity in bytes.  ``None`` means unlimited
    #: (no evictions ever happen).  Experiments usually set this from the
    #: workload footprint via an oversubscription ratio.
    gpu_memory_bytes: int | None = None

    #: Page replacement policy: "aged-lru" moves a page to the tail only on
    #: (re-)allocation, mirroring the NVIDIA driver's root-chunk LRU list;
    #: "access-lru" also promotes on access.
    replacement_policy: str = "aged-lru"

    #: Prefetcher: "none" or "tree" (Zheng et al., HPCA'16 buddy scheme).
    prefetcher: str = "tree"
    #: Tree prefetcher region size (a 2 MB "large page" region).
    prefetch_region_bytes: int = 2 * MB
    #: Subtree density threshold above which the whole subtree is fetched.
    prefetch_threshold: float = 0.5

    #: PCIe link compression (Figure 11's "BASELINE with PCIe Compression").
    #: Graph data (high-entropy vertex ids) compresses modestly; per-page
    #: ratios vary deterministically around this mean.
    pcie_compression: bool = False
    pcie_compression_ratio: float = 1.4

    #: Skip the D2H transfer when evicting a page that was never written
    #: (its host copy is still valid).  The shipping driver writes back
    #: whole root chunks, which the paper models — hence off by default —
    #: but dirty tracking is a natural extension studied by the ablation
    #: benches.
    skip_clean_eviction_transfer: bool = False

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError("page_size must be a positive power of two")
        if self.fault_handling_cycles < 0:
            raise ConfigError("fault_handling_cycles must be non-negative")
        if self.pcie_h2d_gbps <= 0 or self.pcie_d2h_gbps <= 0:
            raise ConfigError("PCIe bandwidths must be positive")
        if self.replacement_policy not in ("aged-lru", "access-lru"):
            raise ConfigError(f"unknown replacement policy {self.replacement_policy!r}")
        if self.prefetcher not in ("none", "tree"):
            raise ConfigError(f"unknown prefetcher {self.prefetcher!r}")
        if self.gpu_memory_bytes is not None and self.gpu_memory_bytes < self.page_size:
            raise ConfigError("gpu_memory_bytes must hold at least one page")

    @property
    def page_shift(self) -> int:
        return self.page_size.bit_length() - 1

    def h2d_cycles_per_page(self, page_bytes: int | None = None) -> int:
        """CPU->GPU transfer time for one page, in cycles (= ns at 1 GHz)."""
        size = self.page_size if page_bytes is None else page_bytes
        return max(1, round(size / self.pcie_h2d_gbps))

    def d2h_cycles_per_page(self, page_bytes: int | None = None) -> int:
        """GPU->CPU transfer time for one page, in cycles."""
        size = self.page_size if page_bytes is None else page_bytes
        return max(1, round(size / self.pcie_d2h_gbps))

    @property
    def frames(self) -> int | None:
        """Number of page frames in GPU memory, or None when unlimited."""
        if self.gpu_memory_bytes is None:
            return None
        return self.gpu_memory_bytes // self.page_size


@dataclass(frozen=True)
class ToConfig:
    """Thread Oversubscription (Section 4.1) configuration."""

    enabled: bool = False
    #: Extra inactive blocks allocated per SM at kernel launch.
    initial_extra_blocks: int = 1
    #: Hard cap on extra blocks an SM may accumulate.
    max_extra_blocks: int = 3
    #: Lifetime-monitor window (cycles).  The paper recomputes the running
    #: average of page lifetimes every 100k cycles.
    monitor_period_cycles: int = 100_000
    #: Fractional drop in average page lifetime that freezes/limits context
    #: switching (the paper's empirically chosen 20% threshold).
    lifetime_drop_threshold: float = 0.20


@dataclass(frozen=True)
class RunaheadConfig:
    """Runahead fault generation — the alternative Section 4.1 dismisses.

    Instead of dispatching more thread blocks, a stalled warp continues
    *speculatively* down its instruction stream, issuing translations (not
    executions) for its next memory accesses so their faults join the
    batch early.  The paper argues this generates fewer faults than TO
    because thread blocks run short; the RUNAHEAD preset lets the claim be
    tested.
    """

    enabled: bool = False
    #: How many ops past the stall the warp can probe.
    depth: int = 8


@dataclass(frozen=True)
class EtcConfig:
    """ETC baseline (Li et al., ASPLOS'19) configuration."""

    enabled: bool = False
    #: Memory-aware throttling: fraction of SMs disabled when triggered.
    throttle_fraction: float = 0.5
    #: Detection/execution epoch length in cycles.
    epoch_cycles: int = 100_000
    #: Capacity compression: effective GPU memory capacity multiplier.
    #: Graph data (near-random vertex ids, floats) compresses poorly, so
    #: the capacity gain on the paper's irregular workloads is modest.
    capacity_compression_ratio: float = 1.1
    #: Extra access latency caused by (de)compression, in cycles.
    compression_latency_cycles: int = 16
    #: Proactive eviction — the ETC authors disable it for irregular
    #: applications, and the paper replicates that; kept as a switch so the
    #: ablation benches can turn it on.
    proactive_eviction: bool = False
    #: Proactive eviction headroom: keep this many frames free.
    proactive_free_frames: int = 8


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration bundle."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    uvm: UvmConfig = field(default_factory=UvmConfig)
    to: ToConfig = field(default_factory=ToConfig)
    etc: EtcConfig = field(default_factory=EtcConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)

    #: Eviction strategy: "serialized" (baseline, Figure 4), "unobtrusive"
    #: (UE, Section 4.2), or "ideal" (zero-latency eviction, Figure 8).
    eviction: str = "serialized"

    #: Force an extra context-switched block per SM even without demand
    #: paging pressure — the Figure 5 experiment on traditional GPUs.
    forced_oversubscription: bool = False

    #: Global time scale applied by the simulator to trace compute cycles.
    #: System presets set this (together with proportionally scaled GPU and
    #: UVM latency constants) when a workload uses pages smaller than the
    #: paper's 64 KB, so that every latency *ratio* — fault handling time
    #: to page transfer, DRAM to batch window, context switch to batch —
    #: matches the full-scale system.  See SystemPreset.configure.
    time_scale: float = 1.0

    #: RNG seed for any stochastic model component.
    seed: int = 0

    #: Optional fault-injection plan (:mod:`repro.chaos`).  None — the
    #: default — leaves every injection site a single pointer test; the
    #: config participates in hashing/equality, so cached experiment
    #: results are keyed on the exact chaos plan.
    chaos: ChaosConfig | None = None

    #: Validate memory-manager/page-table consistency at batch boundaries
    #: and quiescence (:mod:`repro.invariants`).  Off by default: the
    #: checks walk the resident set and are meant for CI and debugging.
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.eviction not in ("serialized", "unobtrusive", "ideal"):
            raise ConfigError(f"unknown eviction strategy {self.eviction!r}")

    def with_memory_bytes(self, gpu_memory_bytes: int | None) -> "SimConfig":
        """Return a copy with a different GPU memory capacity."""
        return replace(self, uvm=replace(self.uvm, gpu_memory_bytes=gpu_memory_bytes))

    def with_oversubscription(self, footprint_bytes: int, ratio: float) -> "SimConfig":
        """Size GPU memory to ``ratio`` * footprint (rounded to whole pages).

        ``ratio=0.5`` reproduces the paper's "50% memory oversubscription";
        ``ratio>=1`` makes the footprint fully resident.
        """
        if ratio <= 0:
            raise ConfigError("oversubscription ratio must be positive")
        if ratio >= 1.0:
            return self.with_memory_bytes(None)
        pages = max(1, int(footprint_bytes * ratio) // self.uvm.page_size)
        return self.with_memory_bytes(pages * self.uvm.page_size)
