"""Unit tests for the struct-of-arrays warp store and its blocks.

Covers the store-level invariants the handle tests (``tests/test_warp.py``,
``tests/test_thread_block.py``) do not: precomputed per-op data,
contiguous block slices, store counters behind the handles, and the
slice-scan block predicates against their specification.
"""

import pytest

from repro.gpu.thread_block import ThreadBlock
from repro.gpu.warp import WarpOp, WarpState
from repro.gpu.warp_soa import SoAWarp
from tests.warp_factory import PAGE_SHIFT, make_store


def two_op_warp():
    ops = [WarpOp(10, (0, 4096)), WarpOp(20, (8192,), is_store=True)]
    store = make_store([ops])
    return store.warps[0], ops


class TestWarpStore:
    def test_precomputes_op_derivatives(self):
        warp, ops = two_op_warp()
        store = warp.store
        assert store.op_pages[0] == tuple(op.pages(PAGE_SHIFT) for op in ops)
        assert store.op_lines[0] == tuple(op.lines() for op in ops)
        assert store.op_store_pages[0] == (
            (),
            ops[1].store_pages(PAGE_SHIFT),
        )
        assert store.op_compute[0] == (10, 20)

    def test_compute_scale_applied_at_build(self):
        ops = [WarpOp(10, (0,))]
        store = make_store([ops], scale=lambda c: c * 3)
        assert store.op_compute[0] == (30,)

    def test_empty_ops_warp_starts_finished(self):
        store = make_store([[]])
        assert store.warps[0].finished
        assert store.warps[0].state is WarpState.FINISHED


class TestSoAWarpLifecycle:
    def test_initial_state(self):
        warp, _ = two_op_warp()
        assert warp.state is WarpState.READY
        assert warp.pc == 0
        assert not warp.finished
        assert warp.remaining_ops == 2

    def test_advance_to_finish(self):
        warp, _ = two_op_warp()
        warp.advance()
        assert warp.state is WarpState.READY
        warp.advance()
        assert warp.finished
        assert warp.remaining_ops == 0

    def test_stall_and_wake_single_page(self):
        warp, _ = two_op_warp()
        warp.stall_on([7], now=100, replay_latency=0)
        assert warp.state is WarpState.STALLED
        assert warp.store.waiting_count[0] == 1
        assert warp.page_arrived(7, now=400)
        assert warp.state is WarpState.READY
        assert warp.stalled_cycles == 300
        assert warp.store.waiting_count[0] == 0

    def test_wake_requires_all_pages(self):
        warp, _ = two_op_warp()
        warp.stall_on([1, 2, 3], now=0, replay_latency=0)
        assert not warp.page_arrived(1, now=10)
        assert not warp.page_arrived(3, now=20)
        assert warp.state is WarpState.STALLED
        assert warp.page_arrived(2, now=30)
        assert warp.state is WarpState.READY

    def test_restall_preserves_stall_start(self):
        # Same accounting rule as Warp.stall_on: a re-stall keeps the
        # original stall_start and max-merges the replay latency.
        warp, _ = two_op_warp()
        warp.stall_on([1], now=100, replay_latency=40)
        warp.stall_on([2], now=500, replay_latency=25)
        assert warp.stall_start == 100
        assert warp.resume_latency == 40
        assert not warp.page_arrived(1, now=900)
        assert warp.page_arrived(2, now=1000)
        assert warp.stalled_cycles == 900

    def test_current_op_tracks_pc(self):
        warp, ops = two_op_warp()
        assert warp.current_op() is ops[0]
        warp.advance()
        assert warp.current_op() is ops[1]

    def test_state_setter_round_trips_every_state(self):
        warp, _ = two_op_warp()
        for state in WarpState:
            warp.state = state
            assert warp.state is state


def make_block(n_warps=4, ops_per_warp=2):
    op_lists = [
        [WarpOp(1, (4096 * (w + o),)) for o in range(ops_per_warp)]
        for w in range(n_warps)
    ]
    return ThreadBlock(0, make_store(op_lists).warps)


def set_states(block, states):
    for warp, state in zip(block.warps, states):
        warp.state = state


def predicate_spec(states, mem_wait):
    """The block predicates, stated directly over per-warp states."""
    runnable = (WarpState.READY, WarpState.RUNNING)
    unfinished = [
        (state, waiting)
        for state, waiting in zip(states, mem_wait)
        if state is not WarpState.FINISHED
    ]
    return {
        # Every warp retired.
        "finished": not unfinished,
        # TO trigger: some warp stalled on a fault, none able to issue.
        "fully_stalled": WarpState.STALLED in states
        and not any(state in runnable for state in states),
        # Virtual Thread trigger: every unfinished warp is fault-stalled
        # or waiting on DRAM, and at least one such warp exists.
        "fully_mem_stalled": bool(unfinished)
        and all(
            state is WarpState.STALLED or waiting
            for state, waiting in unfinished
        ),
        # Activation is worthwhile: some warp could issue once switched in.
        "ready_to_run": any(
            state in (WarpState.READY, WarpState.SUSPENDED) for state in states
        ),
    }


def predicates(block):
    return {
        "finished": block.finished,
        "fully_stalled": block.fully_stalled(),
        "fully_mem_stalled": block.fully_mem_stalled(),
        "ready_to_run": block.ready_to_run(),
    }


PREDICATE_CASES = [
    [WarpState.READY] * 4,
    [WarpState.STALLED] * 4,
    [WarpState.FINISHED] * 4,
    [WarpState.STALLED, WarpState.READY, WarpState.STALLED, WarpState.STALLED],
    [WarpState.STALLED, WarpState.FINISHED, WarpState.STALLED, WarpState.SUSPENDED],
    [WarpState.SUSPENDED] * 4,
    [WarpState.RUNNING, WarpState.STALLED, WarpState.FINISHED, WarpState.READY],
    [WarpState.FINISHED, WarpState.FINISHED, WarpState.STALLED, WarpState.FINISHED],
]


class TestSoAThreadBlockPredicates:
    @pytest.mark.parametrize("states", PREDICATE_CASES)
    def test_predicates_match_object_model(self, states):
        block = make_block()
        set_states(block, states)
        assert predicates(block) == predicate_spec(states, [False] * 4)
        for warp in block.warps:
            warp.mem_wait = True
        assert predicates(block) == predicate_spec(states, [True] * 4)

    def test_mem_wait_feeds_fully_mem_stalled(self):
        block = make_block()
        states = [
            WarpState.STALLED,
            WarpState.READY,
            WarpState.FINISHED,
            WarpState.STALLED,
        ]
        set_states(block, states)
        assert not block.fully_mem_stalled()
        block.warps[1].mem_wait = True
        assert block.fully_mem_stalled()
        assert block.store.mem_wait == [False, True, False, False]

    def test_suspend_and_resume_round_trip(self):
        block = make_block()
        states = [
            WarpState.READY,
            WarpState.STALLED,
            WarpState.READY,
            WarpState.FINISHED,
        ]
        set_states(block, states)
        suspended = block.suspend_runnable_warps()
        assert [w.warp_id for w in suspended] == [0, 2]
        assert all(w.state is WarpState.SUSPENDED for w in suspended)
        resumed = block.resume_suspended_warps()
        assert [w.warp_id for w in resumed] == [0, 2]
        assert all(w.state is WarpState.READY for w in resumed)
        assert [w.state for w in block.warps] == states

    def test_suspend_with_nothing_runnable_is_empty(self):
        block = make_block()
        for warp in block.warps:
            warp.state = WarpState.STALLED
        assert block.suspend_runnable_warps() == []
        assert block.resume_suspended_warps() == []

    def test_contiguity_enforced(self):
        store = make_store([[WarpOp(1, (0,))] for _ in range(3)])
        with pytest.raises(ValueError):
            ThreadBlock(0, [store.warps[0], store.warps[2]])

    def test_block_slice_offsets(self):
        # Two blocks over one store: predicates must only see their slice.
        op_lists = [[WarpOp(1, (4096 * i,))] for i in range(4)]
        store = make_store(op_lists)
        first = ThreadBlock(0, store.warps[:2])
        second = ThreadBlock(1, store.warps[2:])
        for warp in first.warps:
            warp.state = WarpState.STALLED
        assert first.fully_stalled()
        assert not second.fully_stalled()
        assert second.ready_to_run()


class TestBackendConstruction:
    def test_soa_simulator_builds_soa_blocks(self):
        from repro import build_workload, systems
        from repro.simulator import GpuUvmSimulator

        wl = build_workload("KCORE", scale="tiny", seed=0)
        config = systems.BASELINE.configure(wl, ratio=0.5)
        sim = GpuUvmSimulator(wl, config)
        blocks = sim._build_blocks(wl.kernels[0])
        assert blocks, "expected at least one block"
        assert all(isinstance(b, ThreadBlock) for b in blocks)
        assert all(isinstance(w, SoAWarp) for b in blocks for w in b.warps)
        store = sim._warp_store
        assert store is blocks[0].store
        # Per-block index ranges are contiguous and non-overlapping.
        ranges = sorted((b.lo, b.hi) for b in blocks)
        for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo >= prev_hi
