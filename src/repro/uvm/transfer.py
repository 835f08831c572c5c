"""PCIe DMA transfer model.

Modern DMA engines allow bidirectional transfers (Section 4.2): the
CPU->GPU (host-to-device, H2D) and GPU->CPU (device-to-host, D2H)
directions are independent channels that can stream concurrently.  What
serializes evictions against migrations in the baseline is the *runtime's*
allocation protocol, not the link — the channel model below is therefore
deliberately direction-independent, and the eviction strategies decide how
the two channels are scheduled.

Each channel is a simple busy-until pipeline: a transfer enqueued at time
``t`` starts at ``max(t, busy_until)`` and occupies the channel for its
serialized duration.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.gpu.config import UvmConfig


class DmaChannel:
    """One direction of the PCIe link."""

    def __init__(self, name: str, cycles_per_page: int) -> None:
        if cycles_per_page <= 0:
            raise SimulationError(
                "cycles_per_page must be positive",
                channel=name,
                cycles_per_page=cycles_per_page,
            )
        self.name = name
        self.cycles_per_page = cycles_per_page
        self.busy_until = 0
        self.pages_transferred = 0
        self.busy_cycles = 0
        self.stall_retries = 0
        self.stall_cycles = 0
        #: Optional :class:`repro.obs.Observability` session; when set,
        #: every transfer becomes a span on the ``dma.<name>`` track.
        self.obs = None
        #: Optional :class:`repro.chaos.ChaosSession`; when set, transfers
        #: may stall/fail and retry with exponential backoff (the
        #: ``dma-stall`` injector).  None keeps enqueue unperturbed.
        self.chaos = None
        self._track = f"dma.{name}"

    def enqueue(self, now: int, duration: int | None = None) -> tuple[int, int]:
        """Enqueue one page transfer at ``now``; return (start, finish).

        Under chaos injection a transfer may fail: each failed attempt
        occupies the channel for its duration plus a backoff delay before
        the retransfer, so a stalled DMA pushes back everything queued
        behind it — exactly the head-of-line blocking a real replayed
        descriptor causes.
        """
        total = self.cycles_per_page if duration is None else duration
        chaos = self.chaos
        if chaos is not None:
            extra = chaos.dma_attempts(self.name, total, now)
            if extra:
                self.stall_retries += 1
                self.stall_cycles += extra
                total += extra
        busy = self.busy_until
        start = now if now >= busy else busy
        finish = start + total
        self.busy_until = finish
        self.pages_transferred += 1
        self.busy_cycles += total
        obs = self.obs
        if obs is not None:
            obs.tracer.complete(self._track, "page transfer", start, finish)
        return start, finish


class PcieModel:
    """The two directions of the link plus compression effects.

    With link compression enabled, each page's transfer time depends on
    its (deterministic pseudo-random) compressibility; the channel's
    constant cost is the mean-compressed value used when no page identity
    is available.
    """

    def __init__(self, uvm: UvmConfig) -> None:
        self._uvm = uvm
        ratio = uvm.pcie_compression_ratio if uvm.pcie_compression else 1.0
        if ratio < 1.0:
            raise SimulationError("compression ratio must be >= 1", ratio=ratio)
        self.compression_ratio = ratio
        self.compression = None
        if uvm.pcie_compression:
            # Local import: compression.py has no dependency back on us.
            from repro.uvm.compression import CompressionModel

            self.compression = CompressionModel(
                mean_ratio=ratio, spread=(ratio - 1.0) * 0.5
            )
        self.h2d = DmaChannel(
            "h2d", max(1, round(uvm.h2d_cycles_per_page() / ratio))
        )
        self.d2h = DmaChannel(
            "d2h", max(1, round(uvm.d2h_cycles_per_page() / ratio))
        )

    def attach_obs(self, obs) -> None:
        """Route both channels' transfer spans to an obs session."""
        self.h2d.obs = obs
        self.d2h.obs = obs

    def attach_chaos(self, chaos) -> None:
        """Route both channels through a chaos session (DMA stalls)."""
        self.h2d.chaos = chaos
        self.d2h.chaos = chaos

    @property
    def h2d_cycles_per_page(self) -> int:
        return self.h2d.cycles_per_page

    @property
    def d2h_cycles_per_page(self) -> int:
        return self.d2h.cycles_per_page

    def h2d_duration(self, page: int) -> int:
        """CPU->GPU transfer time for this specific page."""
        if self.compression is None:
            return self.h2d.cycles_per_page
        size = self.compression.compressed_bytes(page, self._uvm.page_size)
        return self._uvm.h2d_cycles_per_page(size)

    def d2h_duration(self, page: int) -> int:
        """GPU->CPU transfer time for this specific page."""
        if self.compression is None:
            return self.d2h.cycles_per_page
        size = self.compression.compressed_bytes(page, self._uvm.page_size)
        return self._uvm.d2h_cycles_per_page(size)

    def migrate_page(self, now: int, page: int | None = None) -> tuple[int, int]:
        """Schedule one CPU->GPU page migration."""
        # Per-page durations only differ under compression; skip the
        # duration lookup entirely on the common uncompressed path.
        if page is None or self.compression is None:
            return self.h2d.enqueue(now)
        return self.h2d.enqueue(now, self.h2d_duration(page))

    def evict_page(self, now: int, page: int | None = None) -> tuple[int, int]:
        """Schedule one GPU->CPU page eviction transfer."""
        if page is None or self.compression is None:
            return self.d2h.enqueue(now)
        return self.d2h.enqueue(now, self.d2h_duration(page))
