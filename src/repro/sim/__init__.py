"""Discrete-event simulation substrate.

The whole reproduction runs on a single :class:`~repro.sim.engine.Engine`
instance whose clock counts GPU cycles (1 cycle = 1 ns at the 1 GHz clock of
the paper's Table 1 configuration).
"""

from repro.sim.engine import Engine
from repro.sim.stats import Counter, Histogram, StatsCollector
from repro.sim.timeline import Timeline, render_batches

__all__ = [
    "Engine",
    "Counter",
    "Histogram",
    "StatsCollector",
    "Timeline",
    "render_batches",
]
