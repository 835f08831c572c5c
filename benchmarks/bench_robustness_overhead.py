"""Chaos/invariants/watchdog disabled must cost <2% — the ISSUE criterion.

Strategy mirrors ``bench_obs_overhead``: every robustness hook is an
``is not None`` pointer guard (engine stall streak, runtime chaos and
invariant hooks, fault-buffer chaos action, DMA stall perturbation), so
the disabled path adds only guard evaluations.  One guard is too small to
resolve inside a real run (noise swamps it), so we measure it directly:

1. A **pre-watchdog engine replica** (the engine's ``run`` body minus
   its watchdog guard, inlined below) races :class:`repro.sim.Engine`
   over the same synthetic event storm; the median per-pair delta is the per-event
   guard cost (``guard_timing``).
2. A real tiny run with robustness off gives events and wall-clock.
   Estimated overhead = guard cost x guard sites x events / runtime.

The estimate is asserted below 2%.  The enabled-path ratios (invariants
checking every batch boundary; a five-injector chaos session) are also
measured and printed for ``docs/robustness.md`` — informational only,
enabled modes are *supposed* to pay for their checking.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from guard_timing import describe, guard_cost

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.chaos.config import parse_chaos_spec
from repro.errors import SimulationError
from repro.sim.engine import Engine, _countdown

#: Upper bound on robustness ``is not None`` guards per engine event:
#: the stall streak in the run loop, plus the runtime/fault-buffer/DMA
#: chaos and invariant hooks (which fire per fault or per batch — far
#: less than once per event; one slot each is already generous).
GUARD_SITES_PER_EVENT = 4


class PreWatchdogEngine(Engine):
    """:meth:`Engine.run`, verbatim minus the watchdog guard.

    The body below is the engine's run loop with its stall guard taken
    out: the same-cycle streak it keeps for the watchdog, the streak's
    threshold test and the watchdog calls at the countdown's stops
    (which then serve ``max_events`` alone).  So the timing delta
    against :class:`Engine` isolates exactly what the watchdog hook
    costs per event while disarmed, and a change to the loop itself
    must be mirrored here.
    """

    def run(self, until=None, max_events=None) -> None:
        lifecycle = self.lifecycle
        lifecycle.fire(
            "start", reason="engine.run() is not reentrant", now=self.now
        )
        queue = self._queue
        now = start_time = self.now
        count = start_count = self.events_processed
        stop = None if max_events is None else count + max(0, max_events)
        obs = self.obs
        count_event = obs.count_event if obs is not None and obs.full else None
        left = _countdown(count, stop, None)
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
                    left -= 1
                    callback()
                    if count_event is not None:
                        count_event(callback)
                    if not left:
                        break
                    if self.checkpoint_due:
                        self._take_checkpoint()
                if self.checkpoint_due:
                    self._take_checkpoint()
        except BaseException:
            lifecycle.fire("fail")
            raise
        lifecycle.fire("finish")
        if until is not None and until > self.now:
            if not queue or queue[0][0] > until:
                self.now = until
        fired = self.events_processed - start_count
        if self.obs is not None and fired:
            self.obs.tracer.complete(
                "engine", "event loop", start_time, self.now, events=fired
            )


def timed_tiny_run(chaos=None, check_invariants=False) -> tuple[float, int]:
    """(wall seconds, engine events) for one KCORE tiny run."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(
        workload, chaos=chaos, check_invariants=check_invariants
    )
    sim = GpuUvmSimulator(workload, config)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.engine.events_processed


def test_robustness_off_overhead_below_two_percent():
    assert obs.current() is None, "a leaked obs session would skew timing"

    guard_cost_per_event, diffs = guard_cost(PreWatchdogEngine, Engine)

    off_seconds, events = min(timed_tiny_run() for _ in range(3))
    estimated = guard_cost_per_event * GUARD_SITES_PER_EVENT * events
    overhead = estimated / off_seconds

    print(f"\n{describe(guard_cost_per_event, diffs)}")
    print(
        f"robustness off: {off_seconds * 1e3:.0f} ms, {events:,} engine "
        f"events, estimated guard overhead {overhead:.3%} "
        f"({GUARD_SITES_PER_EVENT} guard sites/event)"
    )
    assert overhead < 0.02, (
        f"robustness-off guard overhead {overhead:.3%} exceeds the 2% budget"
    )


def test_enabled_mode_ratios_informational():
    """Measure (and print) what checking costs when ON — no threshold."""
    off_seconds, _ = timed_tiny_run()
    inv_seconds, _ = timed_tiny_run(check_invariants=True)
    chaos = parse_chaos_spec(
        "fault-latency:prob=0.5,mult=2;dma-stall:prob=0.2;"
        "drop-fault:prob=0.05;dup-fault:prob=0.1;evict-contend:prob=0.3",
        seed=42,
    )
    chaos_seconds, _ = timed_tiny_run(chaos=chaos)
    print(
        f"\ninvariants on: {inv_seconds * 1e3:.0f} ms vs off "
        f"{off_seconds * 1e3:.0f} ms ({inv_seconds / off_seconds:.2f}x)"
    )
    print(
        f"five-injector chaos: {chaos_seconds * 1e3:.0f} ms "
        f"({chaos_seconds / off_seconds:.2f}x; perturbed runs do more work)"
    )
    assert inv_seconds > 0 and chaos_seconds > 0
