"""Unit tests for the UVM runtime's batch processing state machine."""

import pytest

from repro.gpu.config import UvmConfig
from repro.sim.engine import Engine
from repro.uvm.eviction import SerializedEviction, UnobtrusiveEviction
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.prefetcher import NoPrefetcher
from repro.uvm.replacement import AgedLru
from repro.uvm.runtime import UvmRuntime
from repro.uvm.transfer import PcieModel
from repro.vm.page_table import PageTable


class FakeWarp:
    """Waits on pages like a real warp, records wake-ups."""

    def __init__(self):
        self.waiting = set()
        self.woken_at = None

    def stall_on(self, pages):
        self.waiting.update(pages)

    def page_arrived(self, page, now):
        self.waiting.discard(page)
        if not self.waiting:
            self.woken_at = now
            return True
        return False


def wake_fake_warps(page, now, waiters):
    """The runtime's wake callback: notify each waiter in order."""
    for warp in waiters:
        warp.page_arrived(page, now)


def make_runtime(frames=None, eviction=None, fht=1000, interrupt=100,
                 per_page=0):
    engine = Engine()
    uvm = UvmConfig(
        page_size=4096,
        fault_handling_cycles=fht,
        fault_handling_per_page_cycles=per_page,
        interrupt_latency_cycles=interrupt,
        gpu_memory_bytes=frames * 4096 if frames else None,
        prefetcher="none",
    )
    page_table = PageTable()
    memory = GpuMemoryManager(uvm.frames, AgedLru())
    pcie = PcieModel(uvm)
    runtime = UvmRuntime(
        engine,
        uvm,
        page_table,
        memory,
        pcie,
        eviction or SerializedEviction(),
        NoPrefetcher(),
    )
    runtime.wake_warps = wake_fake_warps
    return engine, runtime


def test_single_fault_migrates_and_wakes():
    engine, runtime = make_runtime()
    warp = FakeWarp()
    warp.stall_on([7])
    runtime.raise_fault(7, warp)
    engine.run()
    assert runtime.page_table.is_resident(7)
    assert warp.woken_at is not None
    # interrupt latency + fault handling + one page transfer.
    expected = 100 + 1000 + runtime.pcie.h2d_cycles_per_page
    assert warp.woken_at == expected


def test_faults_in_interrupt_window_join_first_batch():
    engine, runtime = make_runtime()
    for page in (1, 2, 3):
        runtime.raise_fault(page, None)
    engine.run()
    assert runtime.batch_stats.num_batches == 1
    assert runtime.batch_stats.records[0].demand_pages == 3


def test_fault_during_batch_waits_for_next_batch():
    engine, runtime = make_runtime()
    runtime.raise_fault(1, None)
    # Raise another fault after the first batch begins processing.
    engine.schedule(500, lambda: runtime.raise_fault(2, None))
    engine.run()
    assert runtime.batch_stats.num_batches == 2
    assert runtime.batch_stats.records[0].demand_pages == 1
    assert runtime.batch_stats.records[1].demand_pages == 1


def test_back_to_back_batches_skip_interrupt_latency():
    engine, runtime = make_runtime()
    runtime.raise_fault(1, None)
    engine.schedule(500, lambda: runtime.raise_fault(2, None))
    engine.run()
    first, second = runtime.batch_stats.records
    assert second.begin_time == first.end_time


def test_duplicate_page_faults_deduplicated_per_batch():
    engine, runtime = make_runtime()
    a, b = FakeWarp(), FakeWarp()
    a.stall_on([5])
    b.stall_on([5])
    runtime.raise_fault(5, a)
    runtime.raise_fault(5, b)
    engine.run()
    record = runtime.batch_stats.records[0]
    assert record.demand_pages == 1
    assert record.fault_entries == 2
    assert a.woken_at == b.woken_at


def test_fault_handling_time_scales_with_pages():
    engine, runtime = make_runtime(per_page=50)
    for page in (1, 2, 3, 4):
        runtime.raise_fault(page, None)
    engine.run()
    record = runtime.batch_stats.records[0]
    assert record.fault_handling_time == 1000 + 4 * 50


def test_eviction_when_memory_full():
    engine, runtime = make_runtime(frames=2)
    for page in (1, 2):
        runtime.raise_fault(page, None)
    engine.run()
    assert runtime.memory.resident_pages == 2
    runtime.raise_fault(3, None)
    engine.run()
    assert runtime.page_table.is_resident(3)
    assert runtime.memory.evictions == 1
    # LRU head (page 1) was the victim.
    assert not runtime.page_table.is_resident(1)


def test_eviction_invokes_on_evict_hook():
    engine, runtime = make_runtime(frames=1)
    evicted = []
    runtime.on_evict = evicted.append
    runtime.raise_fault(1, None)
    engine.run()
    runtime.raise_fault(2, None)
    engine.run()
    assert evicted == [1]


def test_stale_entries_dropped():
    from repro.uvm.fault_buffer import FaultEntry

    engine, runtime = make_runtime()
    runtime.raise_fault(1, None)
    engine.run()
    # A replayed fault entry for a now-resident page is drained and then
    # dropped during preprocessing.
    runtime.fault_buffer.push(FaultEntry(1, None, engine.now))
    batches_before = runtime.batch_stats.num_batches
    runtime.raise_fault(99, None)
    engine.run()
    assert runtime.stale_entries_dropped == 1
    assert runtime.batch_stats.num_batches == batches_before + 1


def test_unobtrusive_eviction_first_arrival_not_delayed():
    results = {}
    for strategy in (SerializedEviction(), UnobtrusiveEviction()):
        engine, runtime = make_runtime(frames=2, eviction=strategy)
        for page in (1, 2):
            runtime.raise_fault(page, None)
        engine.run()
        warp = FakeWarp()
        warp.stall_on([3, 4])
        runtime.raise_fault(3, warp)
        runtime.raise_fault(4, warp)
        engine.run()
        results[strategy.name] = warp.woken_at
    assert results["unobtrusive"] < results["serialized"]


def test_batch_record_counts_evictions():
    engine, runtime = make_runtime(frames=2)
    for page in (1, 2):
        runtime.raise_fault(page, None)
    engine.run()
    for page in (3, 4):
        runtime.raise_fault(page, None)
    engine.run()
    assert runtime.batch_stats.records[-1].evicted_pages == 2


def test_waiters_without_buffer_entry_replayed():
    # Simulate an overflow-dropped entry: waiter registered, entry gone.
    engine, runtime = make_runtime()
    lost = FakeWarp()
    lost.stall_on([42])
    runtime._waiters[42] = [lost]
    runtime.memory.on_fault(42)
    # Another fault opens a batch; at batch end the replay logic must
    # re-raise page 42.
    runtime.raise_fault(1, None)
    engine.run()
    assert runtime.page_table.is_resident(42)
    assert lost.woken_at is not None
