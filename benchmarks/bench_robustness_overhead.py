"""What chaos and invariant checking cost when on -- informational.

The off-mode guarantee (chaos, invariants, the warp validator and the
watchdog's same-cycle streak under 2% of the work a run does when
disabled) is gated deterministically by ``bench_guard_share.py``, which
counts the guard lines' own bytecodes.  This module times the enabled
paths for ``docs/robustness.md``: invariants checking every batch
boundary, and a five-injector chaos session.  Enabled modes are
*supposed* to pay for their checking, so there is no threshold.
"""

from __future__ import annotations

import time

from repro import GpuUvmSimulator, build_workload, systems
from repro.chaos.config import parse_chaos_spec


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
