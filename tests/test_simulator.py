"""Integration tests for the top-level simulator."""

import pytest

from repro import GpuUvmSimulator, build_workload, obs, simulate, systems
from repro.errors import SimulationError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import Workload
from tests.warp_ops import WarpOp, kernel_of


def tiny_workload(num_blocks=2, ops_per_warp=4, warps=2, page_size=4096):
    """A hand-built workload touching a handful of pages."""
    vas = AddressSpace(page_size)
    data = vas.allocate("data", 8 * page_size // 8, 8)
    op_lists = [
        [
            WarpOp(8, (data.addr_unchecked(warp * 64 + i * 16),))
            for i in range(ops_per_warp)
        ]
        for warp in range(num_blocks * warps)
    ]
    kernel = kernel_of(op_lists, KernelResources(threads_per_block=WARP_SIZE * warps))
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

    def test_interned_events_reach_the_heap(self):
        """Every warp step and warp completion the engine fires is the
        warp's own interned event object, never a per-schedule closure."""
        workload = tiny_workload()
        config = systems.UNLIMITED.configure(workload, ratio=1.0)
        session = obs.Observability("full")
        fired = []
        count_event = session.count_event

        def log(callback):
            fired.append(callback)
            count_event(callback)

        session.count_event = log
        sim = GpuUvmSimulator(workload, config, obs=session)
        sim.run()
        by_kind = {}
        for callback in fired:
            by_kind.setdefault(getattr(callback, "kind", None), []).append(callback)
        steps = by_kind["GpuUvmSimulator._execute_op"]
        completions = by_kind["GpuUvmSimulator._warp_completed"]
        num_warps = 4  # tiny_workload(): 2 blocks of 2 warps
        assert len({id(e) for e in steps}) == num_warps
        assert len({id(e) for e in completions}) == num_warps
        assert len(completions) == num_warps
        assert len(steps) >= 4 * num_warps  # 4 ops a warp, plus re-issues
        assert all(e._warp.exec_event is e for e in steps)
        assert all(e._warp.complete_event is e for e in completions)

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
