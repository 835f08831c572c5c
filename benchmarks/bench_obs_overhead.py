"""Observability off must cost <2% — the ISSUE's zero-cost criterion.

Strategy: the instrumentation is a *module-level no-op guard* — every hook
site reduces to one ``x is not None`` test when no session is installed.
A guard's cost is too small to resolve inside one real simulation run
(run-to-run noise swamps it), so we measure it directly:

1. A **bare engine replica** (the pre-instrumentation event loop, inlined
   below) and :class:`repro.sim.Engine` each drain the same synthetic
   event storm; the median per-pair delta is the guard cost per event
   (``guard_timing``), measured once for the module.
2. A real tiny run with obs off gives events-processed and wall-clock.
   Estimated overhead = guard cost x events x guard sites / runtime.

The estimate is asserted below 2%; the full-instrumentation ratio is also
measured and printed for the docs (informational, no threshold — ``full``
mode is *supposed* to pay for its data).
"""

from __future__ import annotations

import heapq
import pathlib
import time

import pytest
from guard_timing import describe, guard_cost

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.errors import SimulationError
from repro.sim.engine import Engine

#: Upper bound on `is not None` guard evaluations per engine event across
#: all instrumented components (engine step, fault path, buffer, DMA, SM).
GUARD_SITES_PER_EVENT = 8

#: Upper bound on the *additional* `analytics is not None` guards per
#: engine event added by repro.obs.analytics: op execution (2 charge
#: sites), warp wake (3 wake paths), batch begin/end, page arrival, SM
#: context switch.  When analytics is disabled these are the only cost.
ANALYTICS_GUARD_SITES = 8


class BareEngine(Engine):
    """The seed's event loop, verbatim minus the obs hooks.

    ``step``/``run`` below are byte-for-byte the pre-instrumentation
    bodies (commit c1363d8), so the timing delta against
    :class:`Engine` — the loop those hooks were added to — isolates
    exactly what the observability change added per event.
    """

    _running = False  # the replica's own reentrancy latch

    def step(self) -> bool:
        if not self._queue:
            return False
        time, _seq, callback = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = time
        self._events_processed += 1
        callback()
        return True

    def run(self, until=None, max_events=None) -> None:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        try:
            processed = 0
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            if not self._queue or self._queue[0][0] > until:
                self.now = until


def timed_tiny_run(obs_session) -> tuple[float, int]:
    """(wall seconds, engine events) for one KCORE tiny run."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config, obs=obs_session)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.engine.events_processed


@pytest.fixture(scope="module")
def engine_guards():
    """``(cost per event, per-pair differences)`` of the engine's guards
    over the bare replica, measured once for every gate below."""
    assert obs.current() is None, "a leaked obs session would skew timing"
    return guard_cost(BareEngine, Engine)


def test_obs_off_overhead_below_two_percent(engine_guards):
    assert obs.current() is None, "a leaked obs session would skew timing"
    guard_cost_per_event, diffs = engine_guards

    off_seconds, events = min(timed_tiny_run(None) for _ in range(3))
    estimated = guard_cost_per_event * GUARD_SITES_PER_EVENT * events
    overhead = estimated / off_seconds

    print(f"\n{describe(guard_cost_per_event, diffs)}")
    print(
        f"obs off: {off_seconds * 1e3:.0f} ms, {events:,} engine events, "
        f"estimated guard overhead {overhead:.3%} "
        f"({GUARD_SITES_PER_EVENT} guard sites/event)"
    )
    assert overhead < 0.02, (
        f"obs-off guard overhead {overhead:.3%} exceeds the 2% budget"
    )


def test_analytics_off_overhead_below_two_percent(engine_guards):
    """Analytics disabled must stay under the same 2% budget.

    With ``analytics=False`` every analytics hook is one pointer test
    (``self._an is not None`` / ``self.analytics is not None``), the same
    shape the base instrumentation uses, so the measured per-guard cost
    transfers directly: estimated overhead = guard cost x analytics guard
    sites x events / runtime.
    """
    assert obs.current() is None, "a leaked obs session would skew timing"
    guard_cost_per_event, _ = engine_guards

    off_seconds, events = min(timed_tiny_run(None) for _ in range(3))
    estimated = guard_cost_per_event * ANALYTICS_GUARD_SITES * events
    overhead = estimated / off_seconds

    print(
        f"\nanalytics off: estimated guard overhead {overhead:.3%} "
        f"({ANALYTICS_GUARD_SITES} analytics guard sites/event over "
        f"{events:,} events)"
    )
    assert overhead < 0.02, (
        f"analytics-off guard overhead {overhead:.3%} exceeds the 2% budget"
    )


def _timed_tiny_sim(checkpoint_dir=None, every=1):
    """Like :func:`timed_tiny_run` but returns the simulator too."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config)
    if checkpoint_dir is not None:
        sim.enable_checkpoints(checkpoint_dir, every=every)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, sim, result


#: Pointer tests the disabled checkpoint path pays per *lifecycle
#: transition* (not per event): the batch machine's observer slot, the
#: observer's invariants + hook tests, and the ``complete`` compare.
CHECKPOINT_GUARD_SITES_PER_TRANSITION = 4


def test_checkpoint_off_overhead_below_two_percent(engine_guards):
    """Checkpointing disabled must cost <2% — same budget as obs off.

    With no checkpoint hook installed the engine keeps its unguarded
    fast loop (hook selection happens once per ``run()``), so the only
    recurring cost is the batch machine's observer forward — a handful
    of pointer tests per *batch transition*, and transitions are three
    orders of magnitude rarer than events.  Estimated the same way as
    the obs guards: measured per-guard cost x sites x transitions.
    """
    assert obs.current() is None, "a leaked obs session would skew timing"
    guard_cost_per_event, _ = engine_guards

    off_seconds, sim, _ = min(
        (_timed_tiny_sim() for _ in range(3)), key=lambda t: t[0]
    )
    transitions = sum(sim.runtime.machine.counts.values()) + sum(
        sim.engine.lifecycle.counts.values()
    )
    events = sim.engine.events_processed
    estimated = (
        guard_cost_per_event * CHECKPOINT_GUARD_SITES_PER_TRANSITION
        * transitions
    )
    overhead = estimated / off_seconds

    print(
        f"\ncheckpoint off: {transitions:,} lifecycle transitions over "
        f"{events:,} events ({transitions / events:.4%} of events), "
        f"estimated overhead {overhead:.4%} "
        f"({CHECKPOINT_GUARD_SITES_PER_TRANSITION} guards/transition)"
    )
    assert overhead < 0.02, (
        f"checkpoint-off overhead {overhead:.3%} exceeds the 2% budget"
    )


def test_checkpoint_write_restore_latency_informational(tmp_path):
    """Measure (and print) checkpoint write/restore latency — no
    threshold, but the resumed run must stay bit-identical."""
    from repro.checkpoint import restore_checkpoint

    off_seconds, _, baseline = _timed_tiny_sim()
    on_seconds, sim, result = _timed_tiny_sim(tmp_path, every=1)
    assert result == baseline, "checkpointing changed the simulation"
    assert sim.checkpoint_writes > 0

    per_write = sim.checkpoint_write_seconds / sim.checkpoint_writes
    size = pathlib.Path(sim.last_checkpoint_path).stat().st_size

    start = time.perf_counter()
    restored = restore_checkpoint(sim.last_checkpoint_path)
    restore_seconds = time.perf_counter() - start
    resumed = restored.resume()
    assert resumed == baseline, "restored run diverged"

    print(
        f"\ncheckpointing every batch: {sim.checkpoint_writes} writes, "
        f"{per_write * 1e3:.2f} ms/write ({size / 1024:.0f} KiB file), "
        f"restore {restore_seconds * 1e3:.2f} ms; "
        f"run {on_seconds * 1e3:.0f} ms vs off {off_seconds * 1e3:.0f} ms "
        f"({on_seconds / off_seconds:.2f}x with every-batch writes)"
    )


def test_full_mode_ratio_informational():
    """Measure (and print) what full instrumentation costs — no threshold."""
    off_seconds, _ = timed_tiny_run(None)
    full = obs.Observability("full")
    full_seconds, _ = timed_tiny_run(full)
    ratio = full_seconds / off_seconds
    print(
        f"\nfull-mode run: {full_seconds * 1e3:.0f} ms vs off "
        f"{off_seconds * 1e3:.0f} ms ({ratio:.2f}x, "
        f"{len(full.tracer.events):,} trace events, "
        f"{len(full.metrics)} metric series)"
    )
    assert len(full.tracer.events) > 0
