"""Shared timing for the guard-overhead gates.

Every disabled hook (observability, analytics, checkpoints, chaos,
invariants, watchdog) is an ``is not None`` pointer test, too cheap to
resolve inside one real run.  So the gates time it directly: a replica
engine without the guards and :class:`repro.sim.Engine` each drain the
same synthetic event storm, and the difference is the guard cost.

Each pair times both rivals back to back, alternating which runs first,
so drift and warm-up hit both sides equally.  The estimate is the median
of the per-pair differences: one slow pass (a scheduler hiccup, a clock
step) moves one pair, not the estimate, where a difference of minima
moves with whichever rival got the single luckiest pass.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

#: Events in the synthetic storm used to resolve the per-event guard cost.
STORM_EVENTS = 200_000

#: Timed (replica, engine) pairs behind one estimate.
PAIRS = 21


def drain_storm(engine, n: int = STORM_EVENTS) -> float:
    """Time draining n self-rescheduling events; returns seconds."""
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(1, tick)

    engine.schedule(0, tick)
    start = time.perf_counter()
    engine.run()
    return time.perf_counter() - start


def guard_cost(
    bare: Callable[[], object],
    guarded: Callable[[], object],
    pairs: int = PAIRS,
    n: int = STORM_EVENTS,
) -> tuple[float, list[float]]:
    """Per-event cost of the guards ``guarded()`` has and ``bare()``
    lacks (both build a fresh engine): the median per-pair difference
    over ``n`` events, floored at 0.  Also returns the per-pair
    differences in seconds, for the report."""
    diffs = []
    for i in range(pairs):
        if i % 2:
            g = drain_storm(guarded(), n)
            b = drain_storm(bare(), n)
        else:
            b = drain_storm(bare(), n)
            g = drain_storm(guarded(), n)
        diffs.append(g - b)
    return max(0.0, statistics.median(diffs)) / n, diffs


def describe(cost: float, diffs: list[float]) -> str:
    """One line for the report: the estimate and the spread of pairs."""
    quartiles = statistics.quantiles(diffs, n=4)
    return (
        f"guard cost: {cost * 1e9:.1f} ns/event (median of {len(diffs)} "
        f"pairs; per-pair difference quartiles "
        f"{quartiles[0] * 1e3:.2f} / {quartiles[2] * 1e3:.2f} ms over "
        f"{STORM_EVENTS:,} events)"
    )
