"""Page-lifetime monitoring for premature-eviction control.

Section 4.1: "the GPU runtime monitors the premature eviction rates by
periodically estimating the running average of the lifetime of pages by
tracking when each page is allocated and evicted.  ...  If the running
average is decreased by a certain threshold, the thread oversubscription
mechanism does not allow any more context switching".

Every ``period_cycles`` (100k cycles in the paper, recomputed per
window) the monitor takes the mean lifetime of the pages evicted in the
window from the memory manager's running ``lifetime_total`` and
``evictions`` counters.  It maintains an exponential running average of
page lifetimes, and reports a *drop* when the window average falls more
than ``threshold`` (20 %) below the running average.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.uvm.memory_manager import GpuMemoryManager


def _ignore_sample(dropped: bool) -> None:
    """Default ``on_sample`` hook (module-level so monitors pickle)."""


class PageLifetimeMonitor:
    """Periodic running-average lifetime estimator."""

    def __init__(
        self,
        engine: Engine,
        memory: GpuMemoryManager,
        period_cycles: int = 100_000,
        threshold: float = 0.20,
        smoothing: float = 0.5,
    ) -> None:
        if period_cycles <= 0:
            raise ConfigError("monitor period must be positive")
        if not 0.0 < threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigError("smoothing must be in (0, 1]")
        self.engine = engine
        self.memory = memory
        self.period_cycles = period_cycles
        self.threshold = threshold
        self.smoothing = smoothing

        self.running_average: float | None = None
        self.windows_sampled = 0
        self.drops_detected = 0
        #: ``memory.evictions`` and ``memory.lifetime_total`` at the last
        #: tick: the window is everything evicted since.
        self._last_evictions = 0
        self._last_lifetime_total = 0
        self._active = False

        #: Called with ``True`` when lifetimes dropped past the threshold
        #: (premature evictions rising), ``False`` on a healthy window.
        self.on_sample: Callable[[bool], None] = _ignore_sample

    def start(self) -> None:
        """Begin periodic sampling (idempotent)."""
        if self._active:
            return
        self._active = True
        self.engine.schedule(self.period_cycles, self._tick)

    def stop(self) -> None:
        self._active = False

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._active:
            return
        memory = self.memory
        evicted = memory.evictions - self._last_evictions
        if evicted:
            window_avg = (
                memory.lifetime_total - self._last_lifetime_total
            ) / evicted
            self._last_evictions = memory.evictions
            self._last_lifetime_total = memory.lifetime_total
            self.windows_sampled += 1
            dropped = False
            if self.running_average is not None:
                dropped = window_avg < self.running_average * (1.0 - self.threshold)
                if dropped:
                    self.drops_detected += 1
            if self.running_average is None:
                self.running_average = window_avg
            else:
                alpha = self.smoothing
                self.running_average = (
                    alpha * window_avg + (1.0 - alpha) * self.running_average
                )
            self.on_sample(dropped)
        self.engine.schedule(self.period_cycles, self._tick)
