"""End-to-end property tests: random mini-workloads through the full stack.

Hypothesis generates small synthetic workloads (random block/warp/op
shapes and address patterns) and runs them under randomly chosen systems;
the conservation invariants must hold for every one.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import GpuUvmSimulator, systems
from repro.errors import SimulationError, SimulationStalledError
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import KernelBuilder, Workload

PAGE_SIZE = 4096


@st.composite
def mini_workloads(draw):
    """A random workload over two arrays with mixed access patterns."""
    num_blocks = draw(st.integers(min_value=1, max_value=4))
    warps_per_block = draw(st.integers(min_value=1, max_value=2))
    ops_per_warp = draw(st.integers(min_value=1, max_value=8))
    array_pages = draw(st.integers(min_value=2, max_value=12))

    vas = AddressSpace(PAGE_SIZE)
    data = vas.allocate("data", array_pages * PAGE_SIZE // 8, 8)
    aux = vas.allocate("aux", PAGE_SIZE // 8, 8)

    resources = KernelResources(threads_per_block=32 * warps_per_block)
    ops = KernelBuilder("mini", num_blocks * warps_per_block, resources)
    for warp in range(num_blocks * warps_per_block):
        for i in range(ops_per_warp):
            indices = draw(
                st.lists(
                    st.integers(0, data.num_elements - 1),
                    min_size=1,
                    max_size=6,
                )
            )
            addrs = [data.addr_unchecked(j) for j in indices]
            if draw(st.booleans()):
                addrs.append(aux.addr_unchecked(i % aux.num_elements))
            ops.access(warp, [len(addrs)], addrs, store=draw(st.booleans()))
    kernel = ops.build()
    return Workload("MINI", vas, [kernel], num_sms_hint=1)


def run_or_reject_livelock(sim, max_events=5_000_000):
    """Run ``sim``; reject (``assume``) examples that thrash forever.

    An oversubscribed random workload can livelock by construction:
    two warps whose current ops together need more pages than there are
    frames keep evicting each other's pages on every replay, and the
    deterministic timing never breaks the tie.  Forward progress under
    such capacity pressure is not the invariant under test (see
    ``configure_with_floor``), so reject exactly the event-cap outcome —
    a drained-queue deadlock or a watchdog stall is still a real bug and
    propagates.
    """
    try:
        return sim.run(max_events=max_events)
    except SimulationStalledError:
        raise
    except SimulationError as err:
        if "event cap of" in str(err):
            assume(False)
        raise


def configure_with_floor(preset, workload, ratio, min_frames=8):
    """A warp op can need several pages resident *simultaneously*; give
    every random memory at least ``min_frames`` frames so forward
    progress is always possible (capacity-1 memories livelock by
    construction, which is not the invariant under test)."""
    config = preset.configure(workload, ratio=ratio)
    frames = config.uvm.frames
    if frames is not None and frames < min_frames:
        config = config.with_memory_bytes(min_frames * PAGE_SIZE)
    return config


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=mini_workloads(),
    preset=st.sampled_from(
        [systems.BASELINE, systems.UE, systems.TO_UE, systems.IDEAL_EVICTION]
    ),
    ratio=st.sampled_from([0.6, 0.8, 1.0]),
)
def test_random_workload_invariants(workload, preset, ratio):
    config = configure_with_floor(preset, workload, ratio)
    sim = GpuUvmSimulator(workload, config)
    result = run_or_reject_livelock(sim)

    # Completion and accounting invariants.
    assert result.exec_cycles > 0
    assert result.migrated_pages >= result.unique_fault_pages
    assert result.batch_stats.total_migrated_pages == result.migrated_pages
    assert sim.page_table.resident_pages == sim.memory.resident_pages
    if config.uvm.frames is not None:
        assert sim.memory.resident_pages <= config.uvm.frames
    assert (
        sim.memory.allocations - sim.memory.evictions
        == sim.memory.resident_pages
    )
    # Nothing left hanging.
    assert not sim.runtime.waiting_pages()
    assert sim.runtime.fault_buffer.empty
    # Every resident page belongs to the workload.
    assert sim.page_table.resident_set() <= workload.address_space.all_pages()
    # Batch records are complete and well-ordered.
    for record in result.batch_stats.records:
        assert record.complete
        assert record.begin_time <= record.first_migration_time <= record.end_time


@settings(max_examples=8, deadline=None)
@given(workload=mini_workloads())
def test_random_workload_determinism(workload):
    config = configure_with_floor(systems.TO_UE, workload, ratio=0.8)
    a = run_or_reject_livelock(GpuUvmSimulator(workload, config))
    b = run_or_reject_livelock(GpuUvmSimulator(workload, config))
    assert a.exec_cycles == b.exec_cycles
    assert a.evicted_pages == b.evicted_pages
    assert a.batch_stats.num_batches == b.batch_stats.num_batches
