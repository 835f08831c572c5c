"""Eviction scheduling strategies.

The strategy decides *when* evictions and migrations occupy the PCIe
channels; the runtime performs the state changes (victim unmap, frame
release, map) at the times the strategy computed.

Transfers may have non-uniform durations: per-page link compression makes
migrations differ, and a clean (never written) victim needs no D2H
transfer at all when ``skip_clean_eviction_transfer`` is on.  The runtime
therefore passes explicit per-transfer duration lists; ``None`` falls back
to the channel's constant page cost.

* :class:`SerializedEviction` — the baseline protocol (Section 3,
  Figure 4): when allocation fails, a reactive eviction runs to completion
  before the new page's migration starts.  Evictions and migrations fully
  serialize once memory is at capacity.
* :class:`UnobtrusiveEviction` — the paper's UE (Section 4.2, Figures 9
  and 10): one *preemptive* eviction is issued by the top-half ISR at
  batch start (it finishes inside the fault-handling window), and each
  subsequent eviction is scheduled alongside a migration, streaming on the
  D2H channel while migrations stream on H2D.
* :class:`IdealEviction` — zero-latency eviction (Figure 8's "ideal
  eviction" study).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigError
from repro.uvm.transfer import PcieModel


@dataclass
class EvictionPlan:
    """Channel-level schedule for one batch's migrations."""

    #: Absolute arrival time of each migrated page, in migration order.
    arrivals: list[int] = field(default_factory=list)
    #: (start, finish) of each eviction, in eviction order.
    evictions: list[tuple[int, int]] = field(default_factory=list)
    #: When the first page transfer begins (defines the measured GPU
    #: runtime fault handling time).
    first_migration_start: int | None = None
    #: Per-migration cycles the page waited on an eviction-freed frame
    #: beyond plain H2D channel availability, aligned with ``arrivals``.
    #: Zero when a free frame (or unlimited memory) was at hand.  Feeds
    #: the analytics layer's ``eviction_wait`` stall bucket.
    frame_waits: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Eviction-pipeline accounting (observability layer)
    # ------------------------------------------------------------------
    def eviction_busy_cycles(self) -> int:
        """Total cycles the D2H channel spends on this plan's evictions."""
        return sum(finish - start for start, finish in self.evictions)

    def eviction_window_cycles(self) -> int:
        """Span from the first eviction's start to the last one's finish."""
        if not self.evictions:
            return 0
        return max(f for _, f in self.evictions) - min(s for s, _ in self.evictions)

    def eviction_occupancy(self) -> float:
        """Busy fraction of the eviction window (1.0 = perfectly pipelined).

        A plan whose evictions are back-to-back on the D2H channel scores
        1.0; serialized plans interleaved with migrations score lower.
        Zero-length windows (no evictions, or ideal zero-cost evictions)
        report 1.0 — the pipeline was never a bottleneck.
        """
        window = self.eviction_window_cycles()
        if window <= 0:
            return 1.0
        return min(1.0, self.eviction_busy_cycles() / window)


class EvictionStrategy:
    """Base class; subclasses implement :meth:`schedule`."""

    name = "abstract"

    def schedule(
        self,
        *,
        n_pages: int,
        free_frames: int,
        capacity: int | None,
        batch_start: int,
        migration_start: int,
        pcie: PcieModel,
        migration_durations: Sequence[int] | None = None,
        eviction_durations: Sequence[int] | None = None,
    ) -> EvictionPlan:
        raise NotImplementedError

    @staticmethod
    def _durations(
        explicit: Sequence[int] | None, count: int, default: int
    ) -> list[int]:
        if explicit is None:
            return [default] * count
        if len(explicit) < count:
            return list(explicit) + [default] * (count - len(explicit))
        return list(explicit[:count])


class SerializedEviction(EvictionStrategy):
    """Baseline: reactive eviction strictly before each blocked migration."""

    name = "serialized"

    def schedule(
        self,
        *,
        n_pages: int,
        free_frames: int,
        capacity: int | None,
        batch_start: int,
        migration_start: int,
        pcie: PcieModel,
        migration_durations: Sequence[int] | None = None,
        eviction_durations: Sequence[int] | None = None,
    ) -> EvictionPlan:
        plan = EvictionPlan()
        free = n_pages if capacity is None else free_frames
        needed = max(0, n_pages - free)
        mig = self._durations(migration_durations, n_pages, pcie.h2d.cycles_per_page)
        evi = self._durations(eviction_durations, needed, pcie.d2h.cycles_per_page)
        for k in range(n_pages):
            if free > 0:
                free -= 1
                start, arrival = pcie.h2d.enqueue(migration_start, mig[k])
                plan.frame_waits.append(0)
            else:
                # Allocation failed: evict reactively, then migrate.  The
                # runtime loop is sequential, so the eviction cannot start
                # before the previous page's migration finished — which is
                # exactly the H2D channel's busy point.
                evict_at = max(migration_start, pcie.h2d.busy_until)
                index = len(plan.evictions)
                ev_start, ev_finish = pcie.d2h.enqueue(evict_at, evi[index])
                plan.evictions.append((ev_start, ev_finish))
                start, arrival = pcie.h2d.enqueue(ev_finish, mig[k])
                # The migration could have started at evict_at but for
                # the reactive eviction — everything past that point is
                # frame wait.
                plan.frame_waits.append(max(0, start - evict_at))
            if plan.first_migration_start is None:
                plan.first_migration_start = start
            plan.arrivals.append(arrival)
        return plan


class UnobtrusiveEviction(EvictionStrategy):
    """UE: preemptive first eviction + pipelined bidirectional transfers."""

    name = "unobtrusive"

    def schedule(
        self,
        *,
        n_pages: int,
        free_frames: int,
        capacity: int | None,
        batch_start: int,
        migration_start: int,
        pcie: PcieModel,
        migration_durations: Sequence[int] | None = None,
        eviction_durations: Sequence[int] | None = None,
    ) -> EvictionPlan:
        plan = EvictionPlan()
        mig = self._durations(migration_durations, n_pages, pcie.h2d.cycles_per_page)
        if capacity is None:
            for k in range(n_pages):
                start, arrival = pcie.h2d.enqueue(migration_start, mig[k])
                if plan.first_migration_start is None:
                    plan.first_migration_start = start
                plan.arrivals.append(arrival)
                plan.frame_waits.append(0)
            return plan

        needed = max(0, n_pages - free_frames)
        evi = self._durations(eviction_durations, needed, pcie.d2h.cycles_per_page)
        # Times at which a frame becomes available, consumed in order.
        # Frames already free are usable as soon as migration begins.
        frame_ready = [migration_start] * free_frames

        def issue_eviction(at: int) -> None:
            index = len(plan.evictions)
            # A victim must exist: after `index` evictions and
            # `arrivals_done` arrivals, residency is capacity - index +
            # arrivals_done >= 1.  Waiting for arrival[index - capacity]
            # guarantees that in the pathological tiny-memory case.
            if index >= capacity:
                at = max(at, plan.arrivals[index - capacity])
            start, finish = pcie.d2h.enqueue(at, evi[index])
            plan.evictions.append((start, finish))
            frame_ready.append(finish)

        if needed and free_frames == 0:
            # Top-half ISR preemptive eviction at batch start; it completes
            # during the runtime fault handling window.
            issue_eviction(batch_start)

        for k in range(n_pages):
            if k >= len(frame_ready):
                # No frame promised yet (free frames existed at batch start
                # so no preemptive eviction ran, and they just ran out).
                issue_eviction(max(batch_start, pcie.h2d.busy_until))
            ready = frame_ready[k]
            # Where the migration would have started with a frame in hand.
            unconstrained = max(migration_start, pcie.h2d.busy_until)
            start, arrival = pcie.h2d.enqueue(max(migration_start, ready), mig[k])
            if plan.first_migration_start is None:
                plan.first_migration_start = start
            plan.arrivals.append(arrival)
            plan.frame_waits.append(max(0, start - unconstrained))
            # Schedule the next eviction along with this migration
            # (bottom-half ISR pairing), keeping one frame ahead.
            if len(plan.evictions) < needed and len(frame_ready) <= k + 1:
                issue_eviction(start)
        return plan


class IdealEviction(EvictionStrategy):
    """Evictions are instantaneous: frames free the moment they are needed."""

    name = "ideal"

    def schedule(
        self,
        *,
        n_pages: int,
        free_frames: int,
        capacity: int | None,
        batch_start: int,
        migration_start: int,
        pcie: PcieModel,
        migration_durations: Sequence[int] | None = None,
        eviction_durations: Sequence[int] | None = None,
    ) -> EvictionPlan:
        plan = EvictionPlan()
        free = n_pages if capacity is None else free_frames
        mig = self._durations(migration_durations, n_pages, pcie.h2d.cycles_per_page)
        for k in range(n_pages):
            start, arrival = pcie.h2d.enqueue(migration_start, mig[k])
            if plan.first_migration_start is None:
                plan.first_migration_start = start
            if free > 0:
                free -= 1
            else:
                plan.evictions.append((start, start))
            plan.arrivals.append(arrival)
            plan.frame_waits.append(0)
        return plan


def make_eviction_strategy(name: str) -> EvictionStrategy:
    strategies = {
        "serialized": SerializedEviction,
        "unobtrusive": UnobtrusiveEviction,
        "ideal": IdealEviction,
    }
    try:
        return strategies[name]()
    except KeyError:
        raise ConfigError(f"unknown eviction strategy {name!r}") from None
