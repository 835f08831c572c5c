"""Integration tests for the top-level simulator."""

import pytest

from repro import GpuUvmSimulator, build_workload, simulate, systems
from repro.errors import SimulationError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.gpu.warp import WarpOp
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import BlockTrace, KernelTrace, Workload


def tiny_workload(num_blocks=2, ops_per_warp=4, warps=2, page_size=4096):
    """A hand-built workload touching a handful of pages."""
    vas = AddressSpace(page_size)
    data = vas.allocate("data", 8 * page_size // 8, 8)
    blocks = []
    for b in range(num_blocks):
        warp_ops = []
        for w in range(warps):
            ops = [
                WarpOp(8, (data.addr_unchecked((b * warps + w) * 64 + i * 16),))
                for i in range(ops_per_warp)
            ]
            warp_ops.append(ops)
        blocks.append(BlockTrace(warp_ops))
    kernel = KernelTrace(
        "k", blocks, KernelResources(threads_per_block=WARP_SIZE * warps)
    )
    return Workload("hand", vas, [kernel], num_sms_hint=1)


class TestBasicExecution:
    def test_unlimited_memory_runs_to_completion(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        result = GpuUvmSimulator(workload, config).run()
        assert result.exec_cycles > 0
        assert result.migrated_pages > 0
        assert result.evicted_pages == 0

    def test_all_touched_pages_migrated_once_without_eviction(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        result = GpuUvmSimulator(workload, config).run()
        assert result.migrated_pages >= len(workload.touched_pages())

    def test_simulator_single_use(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        sim = GpuUvmSimulator(workload, config)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_page_size_mismatch_rejected(self):
        workload = tiny_workload(page_size=8192)
        config = systems.UNLIMITED.base  # default 64 KB pages
        with pytest.raises(SimulationError):
            GpuUvmSimulator(workload, config)

    def test_simulate_helper(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        assert simulate(workload, config).exec_cycles > 0


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.TO_UE.configure(workload)
        a = GpuUvmSimulator(workload, config).run()
        b = GpuUvmSimulator(workload, config).run()
        assert a.exec_cycles == b.exec_cycles
        assert a.batch_stats.num_batches == b.batch_stats.num_batches
        assert a.evicted_pages == b.evicted_pages


class TestFastPathWiring:
    """The hot-path rework's simulator-side pieces: interned per-warp
    event objects instead of per-schedule closures, and the batched
    page-arrival wake fan-out."""

    def test_warp_scheduling_uses_interned_events(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        sim = GpuUvmSimulator(workload, config)
        kinds = []
        original = sim.engine.schedule

        def spy(delay, callback):
            kind = getattr(callback, "kind", None)
            if kind is not None:
                kinds.append(kind)
            original(delay, callback)

        sim.engine.schedule = spy
        sim.run()
        assert "GpuUvmSimulator._execute_op" in kinds
        assert "GpuUvmSimulator._warp_completed" in kinds

    def test_batched_wake_hook_is_installed(self):
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        sim = GpuUvmSimulator(workload, config)
        assert sim.runtime.wake_warps == sim._wake_warps


class TestOversubscribedExecution:
    def test_eviction_happens_under_pressure(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.BASELINE.configure(workload, ratio=0.5)
        result = GpuUvmSimulator(workload, config).run()
        assert result.evicted_pages > 0
        assert result.migrated_pages > result.unique_fault_pages - 1

    def test_residency_never_exceeds_capacity(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.BASELINE.configure(workload, ratio=0.5)
        sim = GpuUvmSimulator(workload, config)
        sim.run()
        assert sim.memory.resident_pages <= config.uvm.frames

    def test_oversubscription_slower_than_unlimited(self):
        workload = build_workload("KCORE", scale="tiny")
        slow = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload, ratio=0.5)
        ).run()
        fast = GpuUvmSimulator(
            workload, systems.UNLIMITED.configure(workload, ratio=1.0)
        ).run()
        assert slow.exec_cycles > fast.exec_cycles

    def test_ideal_eviction_at_least_as_fast_as_baseline(self):
        workload = build_workload("KCORE", scale="tiny")
        base = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload)
        ).run()
        ideal = GpuUvmSimulator(
            workload, systems.IDEAL_EVICTION.configure(workload)
        ).run()
        assert ideal.exec_cycles <= base.exec_cycles

    def test_event_cap_raises_with_diagnostics(self):
        workload = build_workload("KCORE", scale="tiny")
        config = systems.BASELINE.configure(workload, ratio=0.5)
        with pytest.raises(SimulationError, match="incomplete"):
            GpuUvmSimulator(workload, config).run(max_events=100)


class TestMechanisms:
    def test_to_context_switches_under_paging(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        result = GpuUvmSimulator(
            workload, systems.TO.configure(workload)
        ).run()
        assert result.context_switches > 0

    def test_baseline_never_context_switches(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        result = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload)
        ).run()
        assert result.context_switches == 0

    def test_prefetcher_migrates_extra_pages(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        with_pf = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload, ratio=1.0)
        ).run()
        # Note: UNLIMITED preset also prefetches; compare to NO_PREFETCH.
        without = GpuUvmSimulator(
            workload, systems.NO_PREFETCH.configure(workload, ratio=1.0)
        ).run()
        assert with_pf.prefetched_pages > 0
        assert without.prefetched_pages == 0

    def test_forced_oversubscription_switches_without_paging(self):
        workload = build_workload("BFS-TTC", scale="tiny")
        config = systems.FORCED_OVERSUBSCRIPTION.configure(workload, ratio=1.0)
        result = GpuUvmSimulator(workload, config).run()
        assert result.context_switches > 0
        assert result.evicted_pages == 0

    def test_result_extras_populated(self):
        workload = build_workload("KCORE", scale="tiny")
        result = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload)
        ).run()
        assert "walker_walks" in result.extras
        assert result.extras["walker_walks"] > 0

    def test_speedup_over(self):
        workload = build_workload("KCORE", scale="tiny")
        base = GpuUvmSimulator(
            workload, systems.BASELINE.configure(workload)
        ).run()
        assert base.speedup_over(base) == pytest.approx(1.0)
