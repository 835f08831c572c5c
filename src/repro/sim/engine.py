"""Deterministic discrete-event engine.

Simulated time is an integer cycle count; at the paper's 1 GHz GPU clock
one cycle equals one nanosecond, so microsecond-scale runtime costs (e.g.
the 20 us GPU runtime fault handling time) translate directly to cycle
counts.

The queue is one binary heap of ``(time, sequence, callback)`` tuples;
the sequence number gives deterministic FIFO order within a cycle.

Determinism contract (proven by ``tests/test_engine.py`` and
``tests/test_properties_core.py``): events fire in nondecreasing time
order, and two events scheduled for the same cycle fire in the order they
were scheduled, independent of callback identity.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.lifecycle import ENGINE_LOOP, StateMachine

Callback = Callable[[], None]


def _event_label(callback: Callback) -> str:
    """Human-readable kind for snapshots: interned events carry ``kind``."""
    kind = getattr(callback, "kind", None)
    if kind is not None:
        return kind
    return getattr(callback, "__qualname__", None) or repr(callback)


class Engine:
    """Deterministic discrete-event simulation engine.

    >>> engine = Engine()
    >>> fired = []
    >>> engine.schedule(10, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [10]
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callback]] = []
        self._seq = 0
        self._events_processed = 0
        #: Declared run-loop lifecycle (idle → running → idle/failed).
        #: ``start`` is declared from ``failed`` too, so the harness can
        #: retry a cell on the same engine after an exception.
        self.lifecycle = StateMachine(ENGINE_LOOP, owner=self)
        #: Optional :class:`repro.obs.Observability` session.  None (the
        #: default) keeps the event loop un-instrumented.
        self.obs = None
        #: Optional :class:`repro.invariants.Watchdog`.  When set,
        #: :meth:`run` calls ``watchdog.tick`` after every event and a
        #: stalled run raises :class:`~repro.errors.SimulationStalledError`.
        self.watchdog = None
        #: Checkpoint plumbing (see :mod:`repro.checkpoint`): when a
        #: batch-boundary trigger sets ``checkpoint_due`` during an event,
        #: :meth:`run` calls ``checkpoint_hook()`` *between* events, where
        #: the queue is consistent.
        self.checkpoint_hook: Callback | None = None
        self.checkpoint_due = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(
                "cannot schedule into the past", delay=delay, now=self.now
            )
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute cycle ``time``.

        ``time`` must be integral: truncating a fractional cycle would
        silently reorder events relative to integer-cycle ones.  Integral
        values of other numeric types (e.g. numpy integers) are accepted
        and normalised.
        """
        if not isinstance(time, int):
            as_int = int(time)
            if as_int != time:
                raise SimulationError(
                    f"event times must be whole cycles (got {time!r})"
                )
            time = as_int
        if time < self.now:
            raise SimulationError(
                "cannot schedule into the past", time=time, now=self.now
            )
        heapq.heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError(
                "event queue went backwards in time", event_time=time, now=self.now
            )
        self.now = time
        self._events_processed += 1
        callback()
        obs = self.obs
        if obs is not None and obs.full:
            obs.count_event(callback)
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` cycles pass, or ``max_events``.

        ``until`` is an absolute simulated time.  Events scheduled exactly at
        ``until`` still fire; later events remain queued.  When the run is
        bounded by ``until`` the clock always advances to it — including
        when the queue is empty or drains early — so ``run(until=N)`` is a
        reliable "advance time to N" regardless of pending work.  A stop
        caused by ``max_events`` leaves the clock at the last fired event.

        Reentrancy and failure are lifecycle transitions: a nested call
        fires ``start`` while already ``running`` — an undeclared move,
        so it raises :class:`~repro.errors.IllegalTransition` (a
        :class:`SimulationError`) carrying the machine snapshot.  An
        event handler (or the watchdog) raising moves the machine to
        ``failed``, from which ``start`` is declared — so the engine
        instance, and the harness retrying a failed cell on it, stays
        usable after an exception.
        """
        lifecycle = self.lifecycle
        lifecycle.fire(
            "start", reason="engine.run() is not reentrant", now=self.now
        )
        start_time = self.now
        watchdog = self.watchdog
        try:
            processed = 0
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
                if watchdog is not None:
                    watchdog.tick(self.now)
                if self.checkpoint_due:
                    self.checkpoint_due = False
                    hook = self.checkpoint_hook
                    if hook is not None:
                        hook()
        except BaseException:
            lifecycle.fire("fail")
            raise
        lifecycle.fire("finish")
        if until is not None and until > self.now:
            if not self._queue or self._queue[0][0] > until:
                self.now = until
        if self.obs is not None and processed:
            self.obs.tracer.complete(
                "engine", "event loop", start_time, self.now, events=processed
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    def state_snapshot(self) -> dict:
        """Diagnostic snapshot for stall reports (watchdog context).

        Includes the clock, queue depth, and a preview of the next few
        queued events (time + callback kind) so a stall report names the
        event kinds involved in a livelock.  The preview uses
        ``heapq.nsmallest`` — it never sorts the whole pending queue.
        """
        preview = [
            (time, _event_label(callback))
            for time, _seq, callback in heapq.nsmallest(4, self._queue)
        ]
        return {
            "engine_now": self.now,
            "events_processed": self._events_processed,
            "pending_events": len(self._queue),
            "next_events": preview,
            "run_loop": self.lifecycle.snapshot(),
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle a *between-events* engine as restorable state.

        The queue pickles as-is.  The watchdog and checkpoint hook are
        dropped (the deadline is wall-clock and the hook may close over
        process-local state; the resuming process arms fresh ones) and
        the run-loop machine is normalised to ``idle`` (counts kept): the
        restored engine is not inside ``run()``.
        """
        state = self.__dict__.copy()
        state["watchdog"] = None
        state["checkpoint_hook"] = None
        state["checkpoint_due"] = False
        state["lifecycle"] = self.lifecycle.detached_copy("idle")
        return state
