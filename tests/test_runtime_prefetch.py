"""Runtime behaviour around prefetching and capacity pressure."""

from repro import GpuUvmSimulator, build_workload, systems
from repro.gpu.config import UvmConfig
from repro.sim.engine import Engine
from repro.uvm.eviction import SerializedEviction, UnobtrusiveEviction
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.prefetcher import TreePrefetcher, make_prefetcher
from repro.uvm.replacement import AgedLru
from repro.uvm.runtime import UvmRuntime
from repro.uvm.transfer import PcieModel
from repro.vm.page_table import PageTable
from tests.test_equivalence_golden import assert_matches_golden, run_cell


def make_runtime(frames, *, region_pages=8, eviction=None, valid=None):
    engine = Engine()
    uvm = UvmConfig(
        page_size=4096,
        fault_handling_cycles=1000,
        interrupt_latency_cycles=100,
        gpu_memory_bytes=frames * 4096 if frames else None,
        prefetcher="tree",
        prefetch_region_bytes=region_pages * 4096,
    )
    memory = GpuMemoryManager(uvm.frames, AgedLru())
    runtime = UvmRuntime(
        engine,
        uvm,
        PageTable(),
        memory,
        PcieModel(uvm),
        eviction or SerializedEviction(),
        make_prefetcher(uvm),
        valid,
    )
    return engine, runtime


def test_dense_faults_trigger_prefetch():
    engine, runtime = make_runtime(frames=None)
    # 5 of 8 region pages faulted: the tree fetches the remaining 3.
    for page in range(5):
        runtime.raise_fault(page, None)
    engine.run()
    record = runtime.batch_stats.records[0]
    assert record.demand_pages == 5
    assert record.prefetched_pages == 3
    for page in range(8):
        assert runtime.page_table.is_resident(page)


def test_prefetch_capped_at_free_frames():
    # 6 frames, 5 demand pages -> at most 1 prefetched page, never an
    # eviction forced by prefetching.
    engine, runtime = make_runtime(frames=6)
    for page in range(5):
        runtime.raise_fault(page, None)
    engine.run()
    record = runtime.batch_stats.records[0]
    assert record.demand_pages == 5
    assert record.prefetched_pages <= 1
    assert record.evicted_pages == 0


def test_prefetch_zero_headroom():
    engine, runtime = make_runtime(frames=5)
    for page in range(5):
        runtime.raise_fault(page, None)
    engine.run()
    assert runtime.batch_stats.records[0].prefetched_pages == 0


def test_prefetch_respects_valid_pages():
    valid = set(range(6))
    engine, runtime = make_runtime(frames=None, valid=valid)
    for page in range(5):
        runtime.raise_fault(page, None)
    engine.run()
    assert runtime.page_table.resident_set() <= frozenset(valid)


def test_ue_preemptive_eviction_inside_fht_window():
    engine, runtime = make_runtime(frames=2, eviction=UnobtrusiveEviction())
    evict_times = []
    runtime.on_evict = lambda page: evict_times.append(engine.now)
    for page in (100, 101):
        runtime.raise_fault(page, None)
    engine.run()
    for page in (102, 103):
        runtime.raise_fault(page, None)
    engine.run()
    batch = runtime.batch_stats.records[-1]
    evicts = [t for t in evict_times if t >= batch.begin_time]
    # The preemptive eviction starts right at batch begin and its transfer
    # fits within the fault handling window.
    assert evicts[0] == batch.begin_time
    assert (
        evicts[0] + runtime.pcie.d2h_cycles_per_page
        <= batch.first_migration_time
    )


def test_batch_demand_counts_exclude_prefetch():
    engine, runtime = make_runtime(frames=None)
    for page in range(5):
        runtime.raise_fault(page, None)
    engine.run()
    record = runtime.batch_stats.records[0]
    assert record.migrated_pages == record.demand_pages + record.prefetched_pages


def _spy_on_tree_walks(monkeypatch):
    """Record the free-frame headroom of every batch that expands, and of
    every ``TreePrefetcher._expand_region`` entry, read off the runtime."""
    runtimes, batches, walks = [], [], []

    def headroom():
        runtime = runtimes[-1]
        if runtime.memory.unlimited:
            return None
        return runtime.memory.free_frames - runtime._current.demand_pages

    init = UvmRuntime.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    expand = TreePrefetcher.expand

    def spy_expand(self, *args, **kwargs):
        batches.append(headroom())
        return expand(self, *args, **kwargs)

    expand_region = TreePrefetcher._expand_region

    def spy_expand_region(self, *args, **kwargs):
        walks.append(headroom())
        return expand_region(self, *args, **kwargs)

    monkeypatch.setattr(UvmRuntime, "__init__", spy_init)
    monkeypatch.setattr(TreePrefetcher, "expand", spy_expand)
    monkeypatch.setattr(TreePrefetcher, "_expand_region", spy_expand_region)
    return batches, walks


def test_zero_headroom_batches_skip_the_tree_walk(monkeypatch):
    batches, walks = _spy_on_tree_walks(monkeypatch)
    cell = run_cell("TO+UE", "BFS-TTC", "soa")
    # Full memory on most batches, and none of them walked a tree ...
    assert sum(h <= 0 for h in batches) > len(batches) // 2
    assert walks and all(h > 0 for h in walks)
    # ... with the run still bit-identical to the recorded corpus.
    assert_matches_golden("TO+UE", "BFS-TTC", cell)


def test_memory_to_spare_still_prefetches(monkeypatch):
    batches, walks = _spy_on_tree_walks(monkeypatch)
    wl = build_workload("BFS-TTC", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(wl, ratio=1.5)
    result = GpuUvmSimulator(wl, config).run()
    # Ratio >= 1 leaves memory unlimited: every batch walks its trees.
    assert walks and all(h is None for h in batches + walks)
    assert result.prefetched_pages > 0
