"""GPU runtime fault handling: the batch processing state machine.

Implements the control flow of Section 2.2 / Figure 2:

1. A page-fault interrupt raised while the runtime is idle starts batch
   processing after a short top-half ISR dispatch latency.
2. Batch begin drains *all* fault-buffer entries.  Faults raised after
   this point wait for the next batch.
3. Preprocessing (sorting by page address, prefetch insertion) and the
   CPU-side page-table walks take the *GPU runtime fault handling time*
   (a configurable constant plus an optional per-page term).
4. Page migrations stream to the GPU; each arrival updates the GPU page
   table and resumes the warps waiting on that page.  Eviction scheduling
   is delegated to the configured :class:`~repro.uvm.eviction.EvictionStrategy`.
5. When the last page lands, the runtime immediately re-checks the fault
   buffer and, if non-empty, opens the next batch without waiting for a
   new interrupt.
"""

from __future__ import annotations

from functools import partial
from typing import AbstractSet, Callable, Iterable

from repro.core.batching import BatchRecord, BatchStats
from repro.errors import SimulationError
from repro.gpu.config import UvmConfig
from repro.lifecycle import BATCH_PIPELINE, StateMachine
from repro.sim.engine import Engine
from repro.uvm.eviction import EvictionStrategy
from repro.uvm.fault_buffer import FaultBuffer, FaultEntry
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.prefetcher import NoPrefetcher
from repro.uvm.transfer import PcieModel
from repro.vm.page_table import PageTable


def _noop_wake(page: int, now: int, waiters) -> None:
    """Default :attr:`UvmRuntime.wake_warps` (module-level: picklable)."""


def _noop_evict(page: int) -> None:
    """Default :attr:`UvmRuntime.on_evict` (module-level: picklable)."""


def _noop_batch_end(record: BatchRecord) -> None:
    """Default :attr:`UvmRuntime.on_batch_end` (module-level: picklable)."""


class UvmRuntime:
    """The UVM driver: fault buffering, batching, migration, eviction."""

    def __init__(
        self,
        engine: Engine,
        uvm: UvmConfig,
        page_table: PageTable,
        memory: GpuMemoryManager,
        pcie: PcieModel,
        eviction: EvictionStrategy,
        prefetcher=None,
        valid_pages: "AbstractSet[int] | None" = None,
    ) -> None:
        self.engine = engine
        self.uvm = uvm
        self.page_table = page_table
        self.memory = memory
        self.pcie = pcie
        self.eviction = eviction
        self.prefetcher = prefetcher if prefetcher is not None else NoPrefetcher()
        #: Allocation-backed pages the prefetcher may pull in (a set-like
        #: container; ``None`` means unrestricted).
        self.valid_pages = valid_pages

        self.fault_buffer = FaultBuffer(uvm.fault_buffer_entries)
        self.batch_stats = BatchStats()
        self._waiters: dict[int, list] = {}
        #: The batch pipeline's declared lifecycle (paper Figure 2):
        #: idle → interrupt → preprocess → migrate → idle.  Replaces the
        #: old ``_busy``/``_interrupt_pending`` flag pair; ``idle`` maps
        #: to neither flag set, ``interrupt`` to ``_interrupt_pending``,
        #: and ``migrate`` to ``_busy``.
        self.machine = StateMachine(BATCH_PIPELINE, owner=self)
        self._current: BatchRecord | None = None
        self._remaining_arrivals = 0
        # Frames unmapped but whose eviction transfer hasn't finished yet;
        # persists across batches (a D2H transfer may outlive its batch).
        self._pending_frames: list[int] = []

        #: Called once per page arrival with ``(page, now, waiters)``; fans
        #: out to every waiter of the page in a single call.  The
        #: implementation must preserve per-warp order — notify each
        #: waiter, then wake it before notifying the next — because a
        #: wake's side effects (block activation, context-switch
        #: decisions) are observable to later waiters.
        self.wake_warps: Callable[..., None] = _noop_wake
        #: Called with each evicted page (cache/TLB invalidation hook).
        self.on_evict: Callable[[int], None] = _noop_evict
        #: Called when a batch completes (TO controller, ETC epochs).
        self.on_batch_end: Callable[[BatchRecord], None] = _noop_batch_end
        #: Optional :class:`repro.sim.timeline.Timeline` receiving batch
        #: lifecycle events for Figure-2-style rendering.
        self.timeline = None
        #: Optional :class:`repro.obs.Observability` session (batch
        #: lifecycle spans, fault→arrival latency histograms, eviction
        #: markers).  None keeps the fault/migration path un-instrumented.
        self.obs = None
        #: Optional :class:`repro.chaos.ChaosSession` perturbing the
        #: fault-handling window, eviction durations, and batch opening.
        self.chaos = None
        #: Optional :class:`repro.invariants.InvariantChecker` validated
        #: at batch boundaries; None costs one pointer test per batch.
        self.invariants = None
        #: Optional :class:`repro.obs.analytics.RunAnalytics` receiving
        #: one BatchObservation per batch plus per-arrival frame-wait
        #: context; None keeps the batch path un-instrumented.
        self.analytics = None
        #: Per-page eviction frame wait of the open batch's migrations
        #: (analytics only; empty otherwise).
        self._frame_waits: dict[int, int] = {}
        #: First-fault time per in-flight page, for the fault→arrival
        #: latency histogram; populated only while ``obs`` is attached.
        self._fault_times: dict[int, int] = {}

        # Lifetime counters.
        self.faults_raised = 0
        self.stale_entries_dropped = 0

    # ------------------------------------------------------------------
    # Fault intake
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """A batch is in flight (lifecycle state ``migrate``)."""
        return self.machine.state == "migrate"

    def page_has_waiters(self, page: int) -> bool:
        return page in self._waiters

    def raise_fault(self, page: int, warp) -> None:
        """A warp faulted on ``page``; buffer it and wake the runtime."""
        self.faults_raised += 1
        new_page = page not in self._waiters
        if new_page:
            self._waiters[page] = []
            self.memory.on_fault(page)
            if self.obs is not None:
                self._fault_times[page] = self.engine.now
        if warp is not None:
            self._waiters[page].append(warp)
        self.fault_buffer.push(FaultEntry(page, warp, self.engine.now))
        machine = self.machine
        if machine.state == "idle":
            # Top-half ISR dispatch; the fault buffer keeps filling until
            # the batch begins and drains it.
            machine.fire("fault")
            self.engine.schedule(self.uvm.interrupt_latency_cycles, self._begin_batch)

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def fault_handling_cycles(self, n_pages: int) -> int:
        """GPU runtime fault handling time for a batch of ``n_pages``."""
        return (
            self.uvm.fault_handling_cycles
            + self.uvm.fault_handling_per_page_cycles * n_pages
        )

    def _begin_batch(self) -> None:
        # ``begin`` is declared from ``interrupt`` (ISR fired) and
        # ``idle`` (a completed batch chaining into the next); from
        # ``migrate`` — the old "batch begin while runtime busy" — it is
        # an IllegalTransition carrying the machine snapshot.
        machine = self.machine
        machine.fire(
            "begin",
            open_batch=self._current.index if self._current else None,
            next_batch=self.batch_stats.num_batches,
            buffered_entries=len(self.fault_buffer),
            now=self.engine.now,
        )
        chaos = self.chaos
        if chaos is not None:
            chaos.on_batch_begin(self.batch_stats.num_batches, self.engine.now)
        inv = self.invariants
        if inv is not None:
            inv.on_batch_begin(self.batch_stats.num_batches, self.engine.now)
        an = self.analytics
        if an is not None:
            # Queue depths as the batch sees them, before the drain.
            now0 = self.engine.now
            depths = (
                len(self.fault_buffer),
                len(self._waiters),
                sum(len(w) for w in self._waiters.values()),
                len(self._pending_frames),
                max(0, self.pcie.h2d.busy_until - now0),
                max(0, self.pcie.d2h.busy_until - now0),
            )
            stale_before = self.stale_entries_dropped
        entries = self.fault_buffer.drain()
        pages, n_entries = self._preprocess(entries)
        if not pages:
            # Every drained entry was stale (page already resident) — or
            # was dropped before it reached the buffer (overflow, chaos
            # drop-fault).  Replay faults for any page that still has
            # sleeping waiters so its warps are not stranded, then return
            # to idle; the replayed entries re-arm the interrupt path.
            replayed = self._replay_missing_waiters()
            if an is not None:
                an.flight.record(
                    "empty_drain",
                    self.engine.now,
                    entries=n_entries,
                    replayed=replayed,
                )
            if not self.fault_buffer.empty:
                machine.fire("rearm")
                self.engine.schedule(
                    self.uvm.interrupt_latency_cycles, self._begin_batch
                )
            else:
                machine.fire("empty")
            return

        machine.fire("dispatch")
        now = self.engine.now
        record = BatchRecord(
            index=self.batch_stats.num_batches,
            begin_time=now,
            fault_entries=n_entries,
            demand_pages=len(pages),
            page_size=self.uvm.page_size,
        )
        self._current = record

        prefetched = self.prefetcher.expand(
            pages, self.page_table.resident_view(), self.valid_pages
        )
        # Prefetching is opportunistic: it must never *force* evictions
        # (the driver only expands within free space).  Demand pages keep
        # priority for the available frames.
        if not self.memory.unlimited:
            headroom = max(0, self.memory.free_frames - len(pages))
            prefetched = prefetched[:headroom]
        record.prefetched_pages = len(prefetched)
        all_pages = sorted(set(pages) | set(prefetched))

        fht = self.fault_handling_cycles(len(all_pages))
        if chaos is not None:
            fht = chaos.perturb_fault_handling(fht, now)
        migration_start = now + fht
        free = self.memory.free_frames if not self.memory.unlimited else 0
        needed = (
            0
            if self.memory.unlimited
            else max(0, len(all_pages) - free)
        )
        victims, eviction_durations = self._plan_evictions(needed, all_pages)
        plan = self.eviction.schedule(
            n_pages=len(all_pages),
            free_frames=free,
            capacity=self.memory.capacity,
            batch_start=now,
            migration_start=migration_start,
            pcie=self.pcie,
            migration_durations=[self.pcie.h2d_duration(p) for p in all_pages],
            eviction_durations=eviction_durations,
        )
        record.evicted_pages = len(plan.evictions)

        # Schedule arrivals first so that, at equal timestamps, an arrival
        # (allocation) is processed before an eviction pick — keeping the
        # resident count maximal for victim selection.
        self._remaining_arrivals = len(all_pages)
        record.first_migration_time = (
            plan.first_migration_start
            if plan.first_migration_start is not None
            else migration_start
        )
        if an is not None:
            frame_waits = list(plan.frame_waits)
            if len(frame_waits) < len(all_pages):  # custom strategies
                frame_waits += [0] * (len(all_pages) - len(frame_waits))
            self._frame_waits = dict(zip(all_pages, frame_waits))
            an.begin_batch(
                index=record.index,
                begin_time=now,
                entries=n_entries,
                demand_pages=len(pages),
                stale_entries=self.stale_entries_dropped - stale_before,
                dup_entries=n_entries - len({e.page for e in entries}),
                prefetched_pages=len(prefetched),
                migrated_pages=len(all_pages),
                evicted_pages=len(plan.evictions),
                fault_handling_cycles=fht,
                first_migration_time=record.first_migration_time,
                frame_wait_cycles=sum(frame_waits),
                eviction_busy_cycles=plan.eviction_busy_cycles(),
                eviction_window_cycles=plan.eviction_window_cycles(),
                eviction_occupancy=plan.eviction_occupancy(),
                buffered_entries=depths[0],
                waiting_pages=depths[1],
                waiting_warps=depths[2],
                pending_frames=depths[3],
                h2d_backlog=depths[4],
                d2h_backlog=depths[5],
                free_frames=0 if self.memory.unlimited else free,
                capacity=self.memory.capacity,
                occupancy_pct=self.memory.occupancy_pct,
                to_extra_blocks=(
                    an.oversub_probe() if an.oversub_probe is not None else 0
                ),
                prefetch_regions=getattr(self.prefetcher, "last_regions", 0),
                overflow_at_begin=self.fault_buffer.overflow_faults,
            )
        # Bound-argument partials instead of per-page lambdas: cheaper to
        # build, and they expose ``.func`` so obs event accounting groups
        # every arrival/eviction under one kind.
        page_arrived = self._page_arrived
        schedule_at = self.engine.schedule_at
        for page, arrival in zip(all_pages, plan.arrivals):
            schedule_at(arrival, partial(page_arrived, page))
        evict_one = self._evict_one
        for i, (start, finish) in enumerate(plan.evictions):
            victim = victims[i] if i < len(victims) else None
            schedule_at(start, partial(evict_one, victim))
            schedule_at(finish, self._release_frame)

        if self.timeline is not None:
            self.timeline.record(now, "batch_begin", value=record.index)
            self.timeline.record(
                record.first_migration_time,
                "first_migration",
                value=record.index,
            )
        obs = self.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("uvm.batches").inc()
            metrics.counter("uvm.migrated_pages").inc(len(all_pages))
            metrics.counter("uvm.prefetched_pages").inc(len(prefetched))
            metrics.histogram("uvm.batch_pages", 8).record(len(all_pages))
            metrics.histogram("uvm.fault_handling_cycles", 1000).record(fht)
            if plan.evictions:
                metrics.histogram("uvm.eviction_occupancy_pct", 5).record(
                    plan.eviction_occupancy() * 100
                )
            obs.tracer.complete(
                "batches",
                f"fault handling {record.index}",
                now,
                record.first_migration_time,
                entries=n_entries,
                pages=len(all_pages),
            )

    def _plan_evictions(
        self, needed: int, batch_pages: list[int]
    ) -> tuple[list[int | None], list[int]]:
        """Choose victims for the batch's evictions at planning time.

        Walking the LRU order up front lets the plan account for per-page
        D2H costs — in particular, a clean victim needs no transfer when
        ``skip_clean_eviction_transfer`` is enabled.  Under extreme
        pressure (more evictions needed than currently resident pages) the
        tail victims cannot be known yet; they are returned as ``None``
        and picked at eviction time, with the conservative full-transfer
        duration.
        """
        if not needed:
            return [], []
        exclude = set(batch_pages)
        victims: list[int | None] = []
        for page in self.memory.policy.pages_in_order():
            if len(victims) >= needed:
                break
            if page in exclude or self.memory.is_pinned(page):
                continue
            victims.append(page)
        while len(victims) < needed:
            victims.append(None)

        skip_clean = self.uvm.skip_clean_eviction_transfer
        durations = []
        for victim in victims:
            if victim is None:
                durations.append(self.pcie.d2h_cycles_per_page)
            elif skip_clean and not self.memory.is_dirty(victim):
                durations.append(1)  # unmap only; no transfer
            else:
                durations.append(self.pcie.d2h_duration(victim))
        chaos = self.chaos
        if chaos is not None:
            # Eviction-path contention: selected D2H transfers take a
            # multiple of their modelled time, stretching the window the
            # eviction strategies must hide.
            now = self.engine.now
            durations = [chaos.evict_duration(d, now) for d in durations]
        return victims, durations

    def _preprocess(self, entries: list[FaultEntry]) -> tuple[list[int], int]:
        """Sort + dedup fault entries; drop stale (already-resident) pages."""
        pages: set[int] = set()
        stale = 0
        for entry in entries:
            if self.page_table.is_resident(entry.page):
                stale += 1
                continue
            pages.add(entry.page)
        self.stale_entries_dropped += stale
        return sorted(pages), len(entries)

    # ------------------------------------------------------------------
    # Migration / eviction events
    # ------------------------------------------------------------------
    def _evict_one(self, victim: int | None = None) -> None:
        """Start one eviction: unmap the planned victim, invalidate.

        ``victim=None`` (extreme-pressure tail evictions) falls back to
        picking the LRU head at eviction time.  A planned victim can have
        been evicted-and-refaulted meanwhile only if it re-entered this
        very batch, which :meth:`_plan_evictions` excludes; the residency
        check guards the model anyway.
        """
        if victim is None or not self.memory.is_resident(victim):
            if not self.memory.has_victim():
                # Nothing evictable: another actor (ETC's proactive
                # eviction) already unmapped pages whose D2H transfers are
                # still in flight — the frame this eviction was meant to
                # free is coming from there instead.  Record a skip so the
                # paired release event stays balanced.
                self._pending_frames.append(None)
                return
            victim = self.memory.pick_victim()
        frame = self.page_table.unmap(victim)
        self.memory.evict(victim, self.engine.now)
        self._pending_frames.append(frame)
        self.on_evict(victim)
        if self.timeline is not None:
            self.timeline.record(
                self.engine.now, "evict_start", detail=f"{victim:#x}"
            )
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("uvm.evictions").inc()
            obs.tracer.instant(
                "eviction", "evict", self.engine.now, page=f"{victim:#x}"
            )

    def _release_frame(self) -> None:
        """The eviction's D2H transfer finished; the frame becomes free."""
        if not self._pending_frames:
            raise SimulationError(
                "frame release without a pending eviction",
                batch=self._current.index if self._current else None,
                now=self.engine.now,
            )
        frame = self._pending_frames.pop(0)
        if frame is not None:  # None: skipped eviction (see _evict_one)
            self.memory.release_frame(frame)

    def _page_arrived(self, page: int, attempt: int = 0) -> None:
        now = self.engine.now
        if not self.memory.unlimited and self.memory.free_frames == 0:
            # A cross-actor eviction (ETC proactive eviction) that this
            # batch's plan counted on has not released its frame yet; the
            # page sits in the staging buffer briefly and retries.  A
            # bounded retry keeps a broken invariant loud instead of
            # spinning forever.
            if attempt > 1000:
                raise SimulationError(
                    "page arrived but no frame freed",
                    page=hex(page),
                    retries=attempt,
                    batch=self._current.index if self._current else None,
                    now=now,
                )
            self.engine.schedule(
                max(1, self.pcie.d2h_cycles_per_page // 4),
                partial(self._page_arrived, page, attempt + 1),
            )
            return
        frame = self.memory.allocate(page, now)
        self.page_table.map(page, frame)
        if self.timeline is not None:
            self.timeline.record(now, "page_arrival", detail=f"{page:#x}")
        obs = self.obs
        if obs is not None:
            fault_time = self._fault_times.pop(page, None)
            if fault_time is not None:
                obs.metrics.histogram("uvm.fault_to_arrival_cycles", 1000).record(
                    now - fault_time
                )
            if obs.full:
                obs.tracer.instant("uvm", "page arrival", now, page=f"{page:#x}")
        waiters = self._waiters.pop(page, None)
        if waiters:  # prefetched pages: no waiters
            an = self.analytics
            if an is not None:
                # Context for the stall decomposition the wake performs.
                an.arrival_frame_wait = self._frame_waits.get(page, 0)
            self.wake_warps(page, now, waiters)
        self._remaining_arrivals -= 1
        if self._remaining_arrivals == 0:
            self._end_batch()

    def _end_batch(self) -> None:
        record = self._current
        # ``complete`` is declared only from ``migrate`` and guarded on
        # all arrivals having landed — a batch end without an open batch
        # (or with migrations still in flight) raises IllegalTransition.
        self.machine.fire(
            "complete",
            open_batch=record.index if record is not None else None,
            completed_batches=self.batch_stats.num_batches,
            now=self.engine.now,
        )
        if record is None:
            raise SimulationError(
                "batch end without an open batch",
                completed_batches=self.batch_stats.num_batches,
                now=self.engine.now,
            )
        record.end_time = self.engine.now
        self.batch_stats.add(record)
        self._current = None
        if self.timeline is not None:
            self.timeline.record(self.engine.now, "batch_end", value=record.index)
        obs = self.obs
        if obs is not None:
            obs.metrics.histogram("uvm.batch_cycles", 1000).record(
                record.end_time - record.begin_time
            )
            obs.tracer.complete(
                "batches",
                f"batch {record.index}",
                record.begin_time,
                record.end_time,
                entries=record.fault_entries,
                pages=record.demand_pages,
                prefetched=record.prefetched_pages,
                evicted=record.evicted_pages,
            )
        self.on_batch_end(record)
        replayed = self._replay_missing_waiters()
        an = self.analytics
        if an is not None:
            an.end_batch(
                self.engine.now,
                replayed=replayed,
                overflow_now=self.fault_buffer.overflow_faults,
            )
            self._frame_waits = {}
        inv = self.invariants
        if inv is not None:
            inv.on_batch_end(record.index, self.engine.now)
        # Figure 2 step 5: waiting page faults are handled immediately,
        # skipping the interrupt round-trip.
        if not self.fault_buffer.empty:
            self._begin_batch()

    def _replay_missing_waiters(self) -> int:
        """Hardware fault replay: entries dropped before reaching the
        batch (buffer overflow, chaos drop-fault) are re-raised by the
        replaying MMU.  Any page that still has waiters, is not resident,
        and has no buffered entry gets a fresh entry now — otherwise its
        warps would sleep forever.  Returns the number of entries pushed
        (the batch's replay count for analytics)."""
        replayed = 0
        for page in self._waiters:
            if not self.page_table.is_resident(page) and not (
                self.fault_buffer.contains_page(page)
            ):
                self.fault_buffer.push(
                    FaultEntry(page, None, self.engine.now), replay=True
                )
                replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # Introspection (invariant checking, diagnostics)
    # ------------------------------------------------------------------
    def waiting_pages(self) -> frozenset[int]:
        return frozenset(self._waiters)

    @property
    def open_batch_index(self) -> int | None:
        """Index of the batch being processed, or None when idle."""
        return self._current.index if self._current is not None else None

    @property
    def remaining_arrivals(self) -> int:
        """Migrations still in flight for the open batch."""
        return self._remaining_arrivals if self.busy else 0

    @property
    def pending_frame_count(self) -> int:
        """Frames unmapped but whose eviction transfer hasn't finished."""
        return len(self._pending_frames)

    def state_snapshot(self) -> dict:
        """Diagnostic snapshot for stall/failure reports.

        Reports the batch machine's lifecycle state and per-event
        transition counts alongside the legacy queue-depth keys, so a
        watchdog/:class:`~repro.errors.CellFailure` diagnosis (and the
        flight-recorder dump riding on it) names the exact pipeline stage
        instead of a boolean."""
        machine = self.machine
        return {
            "lifecycle": machine.state,
            "transitions": dict(machine.counts),
            "busy": self.busy,
            "open_batch": self.open_batch_index,
            "completed_batches": self.batch_stats.num_batches,
            "remaining_arrivals": self._remaining_arrivals,
            "buffered_entries": len(self.fault_buffer),
            "waiting_pages": len(self._waiters),
            "pending_frames": len(self._pending_frames),
            "faults_raised": self.faults_raised,
        }
