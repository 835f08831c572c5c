"""Runtime invariant checking and non-progress watchdog.

Two cooperating guards keep a perturbed (or simply buggy) simulation from
silently mis-reporting:

* :class:`InvariantChecker` — validates memory-manager / page-table /
  batch-state consistency.  The runtime calls it at batch boundaries and
  the simulator at engine quiescence; every violation raises
  :class:`~repro.errors.InvariantViolation` naming the invariant and the
  witnesses.
* :class:`Watchdog` — hooked into :class:`repro.sim.engine.Engine`,
  detects non-progress (events firing without simulated time advancing)
  and wall-clock budget overrun, raising
  :class:`~repro.errors.SimulationStalledError` with a diagnostic state
  snapshot.

Both follow the observability layer's pattern: the hook attributes
default to ``None``, so a disabled checker costs one ``is not None``
pointer test per site.

Invariants checked (see ``docs/robustness.md``):

1.  **Residency agreement** — the page table and the memory manager
    agree on the resident page set.
2.  **Unique frames** — no two pages map to the same frame; no mapped
    frame is simultaneously on the free list.
3.  **Frame accounting** — ``free + resident <= capacity`` with the
    difference being in-flight eviction transfers; the runtime's own
    pending-frame list never exceeds that difference.  At quiescence the
    accounting is exact: ``free + resident == capacity``.
4.  **Pinned residency** — pinned pages are resident (a pinned page can
    never have been evicted).
5.  **Batch pairing** — the runtime is busy iff a batch record is open;
    arrival counts never go negative; an idle runtime has no arrivals
    outstanding.
6.  **No sleeping waiters** — at batch boundaries, every page with
    waiting warps is non-resident (a resident page with waiters means a
    missed wake-up).
7.  **Fault-buffer bounds** — occupancy and peak never exceed capacity;
    counters are mutually consistent.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import InvariantViolation, SimulationStalledError


class InvariantChecker:
    """Cross-component consistency checks for one simulator instance."""

    def __init__(self, *, memory, page_table, runtime=None) -> None:
        self.memory = memory
        self.page_table = page_table
        self.runtime = runtime
        self.checks_run = 0
        self.batches_checked = 0
        #: Per-machine, per-event counts of every declared transition the
        #: lifecycle layer reported (see :mod:`repro.lifecycle`).
        self.transition_counts: dict[str, dict[str, int]] = {}
        self.transitions_observed = 0

    # ------------------------------------------------------------------
    # Hook entry points
    # ------------------------------------------------------------------
    def on_batch_begin(self, batch_index: int, now: int) -> None:
        self.batches_checked += 1
        self.check(where=f"batch {batch_index} begin @ {now}")

    def on_batch_end(self, batch_index: int, now: int) -> None:
        self.check(where=f"batch {batch_index} end @ {now}")

    def on_quiescence(self, now: int) -> None:
        self.check(where=f"quiescence @ {now}", quiescent=True)

    def on_transition(
        self, machine: str, event: str, source: str, target: str
    ) -> None:
        """Transition-level hook: wired as the ``observer`` of every
        lifecycle machine when invariant checking is on.  Illegality is
        already enforced by the machines themselves (undeclared moves
        raise before this hook runs), so this only has to account."""
        self.transitions_observed += 1
        counts = self.transition_counts.setdefault(machine, {})
        counts[event] = counts.get(event, 0) + 1

    # ------------------------------------------------------------------
    # The checks
    # ------------------------------------------------------------------
    def check(self, where: str = "", quiescent: bool = False) -> None:
        """Run every invariant; raise :class:`InvariantViolation` on the
        first failure, citing ``where`` and the witnesses."""
        self.checks_run += 1
        memory = self.memory
        table = self.page_table

        table_pages = table.resident_set()
        memory_pages = memory.resident_set()
        if table_pages != memory_pages:
            only_table = sorted(table_pages - memory_pages)[:4]
            only_memory = sorted(memory_pages - table_pages)[:4]
            raise InvariantViolation(
                "page table and memory manager disagree on residency",
                invariant="residency-agreement",
                where=where,
                table_only=[hex(p) for p in only_table],
                memory_only=[hex(p) for p in only_memory],
            )

        frame_map = table.frame_map()
        frames = list(frame_map.values())
        if len(set(frames)) != len(frames):
            seen: dict[int, int] = {}
            for page, frame in frame_map.items():
                if frame in seen:
                    raise InvariantViolation(
                        "two pages resident in one frame",
                        invariant="unique-frames",
                        where=where,
                        frame=frame,
                        pages=[hex(seen[frame]), hex(page)],
                    )
                seen[frame] = page

        if not memory.unlimited:
            free_ids = memory.free_frame_ids()
            overlap = set(free_ids) & set(frames)
            if overlap:
                raise InvariantViolation(
                    "mapped frame is also on the free list",
                    invariant="unique-frames",
                    where=where,
                    frames=sorted(overlap)[:4],
                )
            capacity = memory.capacity
            accounted = len(free_ids) + len(memory_pages)
            in_flight = capacity - accounted
            if in_flight < 0:
                raise InvariantViolation(
                    "more frames free+resident than exist",
                    invariant="frame-accounting",
                    where=where,
                    capacity=capacity,
                    free=len(free_ids),
                    resident=len(memory_pages),
                )
            if quiescent and in_flight != 0:
                raise InvariantViolation(
                    "frames still in flight at quiescence",
                    invariant="frame-accounting",
                    where=where,
                    capacity=capacity,
                    free=len(free_ids),
                    resident=len(memory_pages),
                    in_flight=in_flight,
                )
            runtime = self.runtime
            if runtime is not None and runtime.pending_frame_count > in_flight:
                raise InvariantViolation(
                    "runtime pending frames exceed unaccounted capacity",
                    invariant="frame-accounting",
                    where=where,
                    pending=runtime.pending_frame_count,
                    in_flight=in_flight,
                )

        unpinned = memory.pinned_pages() - memory_pages
        if unpinned:
            raise InvariantViolation(
                "pinned page is not resident (pinned page was evicted?)",
                invariant="pinned-residency",
                where=where,
                pages=[hex(p) for p in sorted(unpinned)[:4]],
            )

        runtime = self.runtime
        if runtime is not None:
            if runtime.busy != (runtime.open_batch_index is not None):
                raise InvariantViolation(
                    "batch open/close pairing broken",
                    invariant="batch-pairing",
                    where=where,
                    busy=runtime.busy,
                    open_batch=runtime.open_batch_index,
                )
            if runtime.remaining_arrivals < 0:
                raise InvariantViolation(
                    "negative outstanding arrival count",
                    invariant="batch-pairing",
                    where=where,
                    remaining=runtime.remaining_arrivals,
                )
            if not runtime.busy and runtime.remaining_arrivals != 0:
                raise InvariantViolation(
                    "idle runtime with arrivals outstanding",
                    invariant="batch-pairing",
                    where=where,
                    remaining=runtime.remaining_arrivals,
                )
            sleeping = {
                page
                for page in runtime.waiting_pages()
                if table.is_resident(page)
            }
            if sleeping:
                raise InvariantViolation(
                    "warps waiting on a page that is already resident",
                    invariant="no-sleeping-waiters",
                    where=where,
                    pages=[hex(p) for p in sorted(sleeping)[:4]],
                )
            buffer = runtime.fault_buffer
            if len(buffer) > buffer.capacity:
                raise InvariantViolation(
                    "fault buffer over capacity",
                    invariant="fault-buffer-bounds",
                    where=where,
                    occupancy=len(buffer),
                    capacity=buffer.capacity,
                )
            if buffer.peak_occupancy > buffer.capacity:
                raise InvariantViolation(
                    "fault buffer peak exceeds capacity",
                    invariant="fault-buffer-bounds",
                    where=where,
                    peak=buffer.peak_occupancy,
                    capacity=buffer.capacity,
                )
            # Chaos-duplicated entries occupy capacity without counting as
            # new faults, so they join the pushed-fault total here.
            if buffer.total_faults + buffer.chaos_duplicated < len(buffer):
                raise InvariantViolation(
                    "fault buffer counters inconsistent",
                    invariant="fault-buffer-bounds",
                    where=where,
                    total=buffer.total_faults,
                    duplicated=buffer.chaos_duplicated,
                    occupancy=len(buffer),
                )


class Watchdog:
    """Engine non-progress and wall-clock budget policy.

    Attach via ``engine.watchdog = Watchdog(...)``.  The engine tracks
    the same-cycle streak and counts events itself, and calls the
    watchdog only when there is something to decide.  Two failure modes:

    * ``stall_events`` consecutive events firing at the *same* simulated
      cycle, after the one that moved the clock there — a same-time
      event cascade that never advances the clock (a scheduling
      livelock).  The engine calls :meth:`stalled` once the event that
      reaches the count has fired.
    * ``wall_budget_seconds`` of real time elapsed since the first event
      the watchdog saw.  The engine calls :meth:`sample` after that
      first event (which arms the deadline) and then after every
      ``wall_check_interval``-th event counted from it, at the event
      counts :meth:`next_sample` names.

    Both raise :class:`~repro.errors.SimulationStalledError` carrying the
    ``snapshot()`` provider's diagnostic state.
    """

    def __init__(
        self,
        *,
        stall_events: int = 1_000_000,
        wall_budget_seconds: float | None = None,
        snapshot: Callable[[], dict] | None = None,
        wall_check_interval: int = 8192,
    ) -> None:
        if stall_events <= 0:
            raise ValueError("stall_events must be positive")
        self.stall_events = stall_events
        self.wall_budget_seconds = wall_budget_seconds
        self.wall_check_interval = max(1, wall_check_interval)
        self._snapshot = snapshot
        #: Engine event count just before the first watched event.
        self._origin: int | None = None
        self._deadline: float | None = None

    def _context(self, **extra) -> dict:
        context = dict(extra)
        if self._snapshot is not None:
            try:
                context.update(self._snapshot())
            except Exception as exc:  # diagnostics must never mask the stall
                context["snapshot_error"] = repr(exc)
        return context

    def stalled(self, now: int, streak: int) -> None:
        """Raise the no-progress error: ``streak`` events fired at cycle
        ``now`` after the one that moved the clock there."""
        raise SimulationStalledError(
            "simulated time stopped advancing",
            kind="no-progress",
            stuck_events=streak,
            cycle=now,
            **self._context(),
        )

    def next_sample(self, count: int) -> int | None:
        """The engine event count after which to call :meth:`sample`
        next, once ``count`` events have fired; None without a budget."""
        if self.wall_budget_seconds is None:
            return None
        origin = self._origin
        if origin is None:
            return count + 1  # the first event arms the deadline
        interval = self.wall_check_interval
        return count + interval - (count - origin) % interval

    def sample(self, now: int, count: int) -> None:
        """Arm the deadline (first call) or check it, after the engine's
        ``count``-th event."""
        if self._origin is None:
            self._origin = count - 1
            self._deadline = time.monotonic() + self.wall_budget_seconds
        elif time.monotonic() > self._deadline:
            raise SimulationStalledError(
                "wall-clock budget exceeded",
                kind="wall-clock",
                budget_seconds=self.wall_budget_seconds,
                cycle=now,
                **self._context(),
            )
