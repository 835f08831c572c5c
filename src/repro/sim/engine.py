"""Deterministic discrete-event engine.

Simulated time is an integer cycle count; at the paper's 1 GHz GPU clock
one cycle equals one nanosecond, so microsecond-scale runtime costs (e.g.
the 20 us GPU runtime fault handling time) translate directly to cycle
counts.

The queue is one binary heap of ``(time, sequence, callback)`` tuples;
the sequence number gives deterministic FIFO order within a cycle.  The
simulator's warp issue loop pushes its next warp step straight onto
``_queue`` under ``_seq``, the same tuple :meth:`Engine.schedule` builds.

Determinism contract (proven by ``tests/test_engine.py`` and
``tests/test_properties_core.py``): events fire in nondecreasing time
order, and two events scheduled for the same cycle fire in the order they
were scheduled, independent of callback identity.
"""

from __future__ import annotations

from heapq import heappop, heappush, nsmallest
from typing import Callable

from repro.errors import SimulationError
from repro.lifecycle import ENGINE_LOOP, StateMachine

Callback = Callable[[], None]

#: Countdown to the next bookkeeping stop when none is due: no
#: ``max_events`` cap, no wall-clock sample, no stall threshold.
_NEVER = 1 << 62


def _countdown(count: int, stop: int | None, sample_at: int | None) -> int:
    """Events from ``count`` to the next bookkeeping stop: the
    ``max_events`` stop or the next wall-clock sample, whichever is
    first (``_NEVER`` when neither is set)."""
    left = _NEVER
    if stop is not None:
        left = stop - count
    if sample_at is not None and sample_at - count < left:
        left = sample_at - count
    return left


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
        #: Events ever scheduled; minus the queue length, events fired.
        self._seq = 0
        #: Same-cycle streak: events fired at ``now`` since the clock last
        #: moved, minus one (-1 until an event fires at ``now``).
        self._streak = -1
        #: Declared run-loop lifecycle (idle → running → idle/failed).
        #: ``start`` is declared from ``failed`` too, so the harness can
        #: retry a cell on the same engine after an exception.
        self.lifecycle = StateMachine(ENGINE_LOOP, owner=self)
        #: Optional :class:`repro.obs.Observability` session.  None (the
        #: default) keeps the event loop un-instrumented.
        self.obs = None
        #: Optional :class:`repro.invariants.Watchdog` stall policy.  The
        #: run loop calls it only when the same-cycle streak reaches its
        #: ``stall_events`` or a wall-clock sample is due; a stalled run
        #: raises :class:`~repro.errors.SimulationStalledError`.
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
        if not isinstance(delay, int) or delay < 0:
            if delay < 0:
                raise SimulationError(
                    "cannot schedule into the past", delay=delay, now=self.now
                )
            self.schedule_at(self.now + delay, callback)
            return
        heappush(self._queue, (self.now + delay, self._seq, callback))
        self._seq += 1

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
        heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` cycles pass, or ``max_events``.

        ``until`` is an absolute simulated time.  Events scheduled exactly at
        ``until`` still fire; later events remain queued.  When the run is
        bounded by ``until`` the clock always advances to it — including
        when the queue is empty or drains early — so ``run(until=N)`` is a
        reliable "advance time to N" regardless of pending work.  A stop
        caused by ``max_events`` leaves the clock at the last fired event.

        This loop is the only place an event fires.  Per event it pops,
        checks that time never runs backwards, advances the clock (or
        extends the same-cycle streak), counts the event and calls it.
        Everything else waits for a countdown to reach zero: the
        ``max_events`` stop, a due wall-clock sample, or a streak that
        reached the watchdog's ``stall_events`` — so the watchdog is
        called only when it has something to decide.

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
        queue = self._queue
        now = start_time = self.now
        streak = self._streak
        count = start_count = self.events_processed
        stop = None if max_events is None else count + max(0, max_events)
        watchdog = self.watchdog
        if watchdog is None:
            stall = _NEVER
            sample_at = None
        else:
            stall = watchdog.stall_events
            sample_at = watchdog.next_sample(count)
        obs = self.obs
        count_event = obs.count_event if obs is not None and obs.full else None
        # Events to go until the next bookkeeping stop.
        left = _countdown(count, stop, sample_at)
        try:
            if left:
                while queue:
                    if until is not None and queue[0][0] > until:
                        break
                    time, seq, callback = heappop(queue)
                    if time != now:
                        if time < now:
                            heappush(queue, (time, seq, callback))
                            raise SimulationError(
                                "event queue went backwards in time",
                                event_time=time,
                                now=now,
                            )
                        self.now = now = time
                        streak = 0
                    else:
                        streak += 1
                        if streak >= stall:
                            left = 1  # stall once this event has fired
                    left -= 1
                    callback()
                    if count_event is not None:
                        count_event(callback)
                    if not left:
                        count = self.events_processed
                        if streak >= stall:
                            watchdog.stalled(now, streak)
                        if count == sample_at:
                            watchdog.sample(now, count)
                            sample_at = watchdog.next_sample(count)
                        if count == stop:
                            break
                        left = _countdown(count, stop, sample_at)
                    if self.checkpoint_due:
                        self._take_checkpoint()
                # The event that reached ``stop`` may have made one due.
                if self.checkpoint_due:
                    self._take_checkpoint()
        except BaseException:
            lifecycle.fire("fail")
            raise
        finally:
            self._streak = streak
        lifecycle.fire("finish")
        if until is not None and until > self.now:
            if not queue or queue[0][0] > until:
                self.now = until
                self._streak = -1
        fired = self.events_processed - start_count
        if self.obs is not None and fired:
            self.obs.tracer.complete(
                "engine", "event loop", start_time, self.now, events=fired
            )

    def _take_checkpoint(self) -> None:
        self.checkpoint_due = False
        hook = self.checkpoint_hook
        if hook is not None:
            hook()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (an event counts as fired
        once it leaves the queue, before its callback runs)."""
        return self._seq - len(self._queue)

    def state_snapshot(self) -> dict:
        """Diagnostic snapshot for stall reports (watchdog context).

        Includes the clock, queue depth, and a preview of the next few
        queued events (time + callback kind) so a stall report names the
        event kinds involved in a livelock.  The preview uses
        ``heapq.nsmallest`` — it never sorts the whole pending queue.
        """
        preview = [
            (time, _event_label(callback))
            for time, _seq, callback in nsmallest(4, self._queue)
        ]
        return {
            "engine_now": self.now,
            "events_processed": self.events_processed,
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
        process-local state; the resuming process arms fresh ones), the
        same-cycle streak restarts with the fresh watchdog, and the
        run-loop machine is normalised to ``idle`` (counts kept): the
        restored engine is not inside ``run()``.
        """
        state = self.__dict__.copy()
        state["watchdog"] = None
        state["checkpoint_hook"] = None
        state["checkpoint_due"] = False
        state["_streak"] = -1
        state["lifecycle"] = self.lifecycle.detached_copy("idle")
        return state
