"""Unit tests for the discrete-event engine.

The contract tests take the engine class from the ``make_engine``
fixture, whose id names the implementation under test (the binary-heap
queue); randomized contract properties live in
``tests/test_properties_core.py``.
"""

import heapq
import pickle

import pytest

from repro.errors import SimulationError, SimulationStalledError
from repro.invariants import Watchdog
from repro.sim.engine import Engine


@pytest.fixture(params=[Engine], ids=["heap"])
def make_engine(request):
    return request.param


def test_starts_at_time_zero(make_engine):
    assert make_engine().now == 0


def test_schedule_and_run_single_event(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule(10, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [10]
    assert engine.now == 10


def test_events_fire_in_time_order(make_engine):
    engine = make_engine()
    order = []
    engine.schedule(30, lambda: order.append("c"))
    engine.schedule(10, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(make_engine):
    engine = make_engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(5, lambda t=tag: order.append(t))
    engine.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_absolute_time(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule_at(42, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [42]


def test_negative_delay_rejected(make_engine):
    engine = make_engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(make_engine):
    engine = make_engine()
    engine.schedule(10, lambda: engine.schedule_at(5, lambda: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_events_can_schedule_more_events(make_engine):
    engine = make_engine()
    fired = []

    def chain(n):
        fired.append(engine.now)
        if n:
            engine.schedule(7, lambda: chain(n - 1))

    engine.schedule(0, lambda: chain(3))
    engine.run()
    assert fired == [0, 7, 14, 21]


def test_run_until_stops_clock_at_bound(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule(10, lambda: fired.append("early"))
    engine.schedule(100, lambda: fired.append("late"))
    engine.run(until=50)
    assert fired == ["early"]
    assert engine.now == 50
    assert engine.pending_events == 1


def test_run_until_includes_boundary_event(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule(50, lambda: fired.append("edge"))
    engine.run(until=50)
    assert fired == ["edge"]


def test_max_events_limits_processing(make_engine):
    engine = make_engine()
    for i in range(10):
        engine.schedule(i, lambda: None)
    engine.run(max_events=4)
    assert engine.events_processed == 4
    assert engine.pending_events == 6


def test_run_on_empty_queue_fires_nothing(make_engine):
    engine = make_engine()
    engine.run()
    assert (engine.now, engine.events_processed) == (0, 0)


def test_backwards_event_raises_and_stays_queued(make_engine):
    """A heap entry behind the clock (only a direct push can make one)
    is refused before it fires or counts, and is left in the queue."""
    engine = make_engine()
    engine.schedule(5, lambda: None)
    engine.run()
    heapq.heappush(engine._queue, (3, engine._seq, lambda: None))
    engine._seq += 1
    with pytest.raises(SimulationError, match="backwards"):
        engine.run()
    assert (engine.now, engine.events_processed, engine.pending_events) == (5, 1, 1)


def test_run_not_reentrant(make_engine):
    engine = make_engine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1, nested)
    engine.run()
    assert len(errors) == 1


def test_run_until_advances_clock_on_empty_queue(make_engine):
    engine = make_engine()
    engine.run(until=40)
    assert engine.now == 40


def test_run_until_advances_clock_when_queue_drains_early(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule(10, lambda: fired.append(engine.now))
    engine.run(until=50)
    assert fired == [10]
    assert engine.now == 50


def test_run_until_is_monotonic_across_calls(make_engine):
    engine = make_engine()
    engine.run(until=30)
    engine.run(until=20)  # an earlier bound never rewinds the clock
    assert engine.now == 30


def test_max_events_stop_does_not_jump_to_until(make_engine):
    engine = make_engine()
    for i in range(4):
        engine.schedule(i, lambda: None)
    engine.run(until=100, max_events=2)
    assert engine.now == 1
    assert engine.pending_events == 2


def test_fractional_time_rejected(make_engine):
    engine = make_engine()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.5, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(0.25, lambda: None)


def test_integral_float_time_normalised(make_engine):
    engine = make_engine()
    fired = []
    engine.schedule_at(3.0, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [3]
    assert isinstance(engine.now, int)


def test_zero_delay_event_fires_at_current_time(make_engine):
    engine = make_engine()
    times = []
    engine.schedule(5, lambda: engine.schedule(0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [5]


def test_exception_in_callback_keeps_counters_exact(make_engine):
    engine = make_engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    engine.schedule(3, lambda: None)
    with pytest.raises(RuntimeError):
        engine.run()
    # The failing event counts as fired (counted-then-fired order) and
    # the engine stays usable for the harness's retry path.
    assert engine.events_processed == 2
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


# ----------------------------------------------------------------------
# Ordering scenarios
# ----------------------------------------------------------------------
def test_far_events_fire_after_near_events():
    """A far-future event scheduled first fires after a nearer one."""
    engine = Engine()
    order = []
    engine.schedule(5000, lambda: order.append("far"))
    engine.schedule(3, lambda: order.append("near"))
    engine.run()
    assert order == ["near", "far"]
    assert engine.now == 5000


def test_migrated_far_events_precede_later_same_cycle_appends():
    """Events scheduled early for a cycle fire ahead of events scheduled
    for the same cycle later on, whatever the clock was at each call."""
    engine = Engine()
    order = []
    engine.schedule_at(15, lambda: order.append("far-a"))  # scheduled at t=0
    engine.schedule_at(15, lambda: order.append("far-b"))
    # Scheduled at t=6, so it lands behind the two above.
    engine.schedule_at(
        6, lambda: engine.schedule_at(15, lambda: order.append("near-c"))
    )
    engine.run()
    assert order == ["far-a", "far-b", "near-c"]


def test_schedule_into_draining_bucket_preserves_fifo():
    """A same-cycle event scheduled while that cycle's events are firing
    runs after the ones already queued for the cycle."""
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule(0, lambda: order.append("appended"))

    engine.schedule(5, first)
    engine.schedule(5, lambda: order.append("second"))
    engine.run()
    assert order == ["first", "second", "appended"]


def test_run_until_then_resume_across_migration():
    """A run bounded by ``until`` and resumed fires everything in order."""
    engine = Engine()
    fired = []
    for t in (2, 6, 20, 100):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run(until=10)
    assert fired == [2, 6]
    assert engine.now == 10
    engine.run()
    assert fired == [2, 6, 20, 100]


@pytest.mark.parametrize("stop", ["until", "max_events"])
def test_schedule_after_bounded_stop_keeps_time_order(make_engine, stop):
    """Regression (found by hypothesis): after a bounded stop, an event
    scheduled at an earlier time than the leftovers still fires first."""
    engine = make_engine()
    order = []
    engine.schedule_at(5, lambda: order.append("early"))
    engine.schedule_at(300, lambda: order.append("late"))
    if stop == "until":
        engine.run(until=100)
    else:
        engine.run(max_events=1)
    assert order == ["early"]
    engine.schedule_at(150, lambda: order.append("mid"))
    engine.run()
    assert order == ["early", "mid", "late"]


def test_head_slot_demotion_keeps_order():
    """Alternating later/earlier schedules fire by time, FIFO per cycle."""
    engine = Engine()
    order = []
    engine.schedule(50, lambda: order.append("later"))
    engine.schedule(10, lambda: order.append("earlier"))
    engine.schedule(50, lambda: order.append("later-2"))
    engine.schedule(10, lambda: order.append("earlier-2"))
    engine.run()
    assert order == ["earlier", "earlier-2", "later", "later-2"]


# ----------------------------------------------------------------------
# state_snapshot
# ----------------------------------------------------------------------
class _KindTagged:
    kind = "tagged.event"

    def __call__(self):
        pass


def test_state_snapshot_previews_next_events_in_order(make_engine):
    engine = make_engine()
    for t in (40, 10, 30, 20, 99, 77):
        engine.schedule(t, _KindTagged())
    snapshot = engine.state_snapshot()
    assert snapshot["engine_now"] == 0
    assert snapshot["pending_events"] == 6
    assert [time for time, _ in snapshot["next_events"]] == [10, 20, 30, 40]
    assert all(label == "tagged.event" for _, label in snapshot["next_events"])
    # The preview must not disturb the queue.
    engine.run()
    assert engine.events_processed == 6


def test_state_snapshot_mixes_near_and_far(make_engine):
    engine = make_engine()
    engine.schedule(100_000, _KindTagged())  # far future
    engine.schedule(3, _KindTagged())
    snapshot = engine.state_snapshot()
    assert [time for time, _ in snapshot["next_events"]] == [3, 100_000]


def test_state_snapshot_labels_plain_functions(make_engine):
    engine = make_engine()

    def named_callback():
        pass

    engine.schedule(1, named_callback)
    ((_, label),) = engine.state_snapshot()["next_events"]
    assert "named_callback" in label


# ----------------------------------------------------------------------
# Run-loop hooks (obs / watchdog / checkpoint)
# ----------------------------------------------------------------------
def _stall_oracle(times, stall_events):
    """1-based index of the event a per-event stall check trips on.

    The reference semantics: each fired event is checked once it has
    fired; an event at a new cycle (or the first event seen) resets the
    count, and each further event at the same cycle adds one, tripping
    when the count reaches ``stall_events``.  None when it never trips.
    """
    last = None
    stuck = 0
    for index, now in enumerate(times, 1):
        if now != last:
            last, stuck = now, 0
        else:
            stuck += 1
            if stuck >= stall_events:
                return index
    return None


def _cascade(engine, lead_in, fired):
    """``lead_in`` events one cycle apart, then a same-cycle cascade
    that never advances the clock; ``fired`` logs every fire time."""

    def spin():
        fired.append(engine.now)
        engine.schedule(0, spin)

    for t in range(lead_in):
        engine.schedule_at(t, lambda: fired.append(engine.now))
    engine.schedule_at(lead_in, spin)


@pytest.mark.parametrize("slice_events", [None, 1, 7], ids=["whole", "slice1", "slice7"])
@pytest.mark.parametrize("stall_events", [1, 10, 100])
def test_same_cycle_cascade_trips_on_reference_event(
    make_engine, stall_events, slice_events
):
    engine = make_engine()
    fired = []
    _cascade(engine, 3, fired)
    # A zero-delay event at the lead-in's first cycle joins its streak.
    engine.schedule_at(0, lambda: fired.append(engine.now))
    engine.watchdog = Watchdog(stall_events=stall_events)
    with pytest.raises(SimulationStalledError, match="stopped advancing") as exc:
        for _ in range(1000):  # the cascade trips within a few hundred events
            engine.run(max_events=slice_events)
    # The tripping event fired, and the engine stopped right after it.
    expected = _stall_oracle(fired, stall_events)
    assert expected == len(fired) == engine.events_processed
    assert exc.value.context["stuck_events"] == stall_events
    assert exc.value.context["cycle"] == fired[-1]


def test_clock_advance_resets_the_streak(make_engine):
    engine = make_engine()
    times = [5] * 4 + [6] * 4 + [9] * 4
    for t in times:
        engine.schedule_at(t, lambda: None)
    engine.watchdog = Watchdog(stall_events=4)
    engine.run()  # three events after each advance: one short of a stall
    assert engine.events_processed == len(times)
    assert _stall_oracle(times, 4) is None
    engine.schedule(0, lambda: None)
    with pytest.raises(SimulationStalledError):
        engine.run()  # the fourth event after the last advance


def test_run_until_clock_advance_resets_the_streak(make_engine):
    engine = make_engine()
    engine.watchdog = Watchdog(stall_events=2)
    for _ in range(2):
        engine.schedule_at(5, lambda: None)
    engine.run()
    engine.run(until=8)  # the clock moves with no event
    for _ in range(2):
        engine.schedule_at(8, lambda: None)
    engine.run()  # one event after the advance: no stall
    assert engine.events_processed == 4


class _SampleLog(Watchdog):
    """A watchdog that logs the event counts it samples the clock at."""

    def __init__(self, **kwargs):
        super().__init__(wall_budget_seconds=3600.0, **kwargs)
        self.samples = []

    def sample(self, now, count):
        self.samples.append(count)
        super().sample(now, count)


@pytest.mark.parametrize("slice_events", [None, 3], ids=["whole", "slice3"])
@pytest.mark.parametrize("interval", [1, 2, 5])
def test_wall_budget_sampled_every_interval(make_engine, interval, slice_events):
    engine = make_engine()
    engine.schedule(1, lambda: None)  # fired before the watchdog is armed
    engine.run()
    for t in range(2, 25):
        engine.schedule_at(t, lambda: None)
    dog = engine.watchdog = _SampleLog(wall_check_interval=interval)
    while engine.pending_events:
        engine.run(max_events=slice_events)
    # The first watched event arms the deadline; then every
    # ``interval``-th event counted from it samples the clock.
    ticks = [count - 1 for count in dog.samples]
    assert ticks == [1] + [t for t in range(2, 24) if t % interval == 0]


def test_without_watchdog_long_cascades_run(make_engine):
    engine = make_engine()
    remaining = [5000]

    def spin():
        remaining[0] -= 1
        if remaining[0]:
            engine.schedule(0, spin)

    engine.schedule(0, spin)
    engine.run()
    assert (engine.now, engine.events_processed) == (0, 5000)


def test_obs_full_counts_event_kinds(make_engine):
    obs_mod = pytest.importorskip("repro.obs")
    engine = make_engine()
    engine.obs = obs_mod.Observability("full")
    engine.schedule(1, _KindTagged())
    engine.schedule(2, _KindTagged())
    engine.run()
    series = engine.obs.metrics.series("engine.events", "counter")
    assert sum(counter.value for counter in series) == 2


def _checkpoint_hook():
    pass


def test_pickle_drops_hooks_and_unpickles_idle():
    """The checkpoint contract: an engine pickled between events (here
    from inside ``run()``) restores idle, with its queue and counters but
    without the process-local watchdog and checkpoint hook."""
    engine = Engine()
    engine.watchdog = Watchdog()
    engine.checkpoint_hook = _checkpoint_hook
    captured = []

    def capture():
        engine.checkpoint_due = True
        captured.append(pickle.dumps(engine))

    engine.schedule(1, capture)
    engine.schedule(5, _KindTagged())
    engine.run(max_events=1)

    restored = pickle.loads(captured[0])
    assert restored.lifecycle.state == "idle"
    assert restored.watchdog is None
    assert restored.checkpoint_hook is None
    assert restored.checkpoint_due is False
    assert (restored.now, restored.pending_events) == (1, 1)
    assert restored.events_processed == 1
    # The original keeps its hooks.
    assert engine.watchdog is not None
    assert engine.checkpoint_hook is _checkpoint_hook
    restored.run()
    assert restored.now == 5 and restored.pending_events == 0
