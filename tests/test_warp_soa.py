"""Unit tests for the struct-of-arrays warp store and its blocks.

Covers the store-level invariants the handle tests (``tests/test_warp.py``,
``tests/test_thread_block.py``) do not: precomputed per-op data,
contiguous block slices, the transition methods and their validating
subclass, and the count-reading block predicates against a scan of the
block's warps (a property test over random transition sequences).
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IllegalTransition
from repro.gpu.thread_block import ThreadBlock
from repro.gpu.warp import WarpState
from repro.gpu.warp_soa import (
    READY,
    RUNNING,
    STALLED,
    SUSPENDED,
    CheckedWarpStore,
    SoAWarp,
)
from repro.lifecycle import WARP_LIFECYCLE, TransitionValidator
from tests.warp_factory import PAGE_SHIFT, arrive, drive, make_store, run_op, stall
from tests.warp_ops import WarpOp


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
        store = make_store([ops], time_scale=3.0)
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
        assert warp.store.block_counts[0] == [1, 0, 0, 0, 0]

    def test_advance_to_finish(self):
        warp, _ = two_op_warp()
        run_op(warp)
        assert warp.state is WarpState.RUNNING
        run_op(warp)
        assert warp.finished
        assert warp.store.block_counts[0] == [0, 0, 0, 0, 1]

    def test_stall_and_wake_single_page(self):
        warp, _ = two_op_warp()
        stall(warp, [7], now=100)
        assert warp.state is WarpState.STALLED
        assert warp.store.waiting_pages[0] == {7}
        assert arrive(warp, 7, now=400)
        assert warp.state is WarpState.READY
        assert warp.stalled_cycles == 300
        assert not warp.store.waiting_pages[0]

    def test_wake_requires_all_pages(self):
        warp, _ = two_op_warp()
        stall(warp, [1, 2, 3])
        assert not arrive(warp, 1, now=10)
        assert not arrive(warp, 3, now=20)
        assert warp.state is WarpState.STALLED
        assert arrive(warp, 2, now=30)
        assert warp.state is WarpState.READY

    def test_restall_preserves_stall_start(self):
        # A re-stall keeps the original stall_start.
        warp, _ = two_op_warp()
        stall(warp, [1], now=100)
        stall(warp, [2], now=500)
        assert warp.store.stall_start[0] == 100
        assert not arrive(warp, 1, now=900)
        assert arrive(warp, 2, now=1000)
        assert warp.stalled_cycles == 900

    def test_current_op_tracks_pc(self):
        warp, ops = two_op_warp()
        store = warp.store
        assert store.op_pages[0][warp.pc] == ops[0].pages(PAGE_SHIFT)
        run_op(warp)
        assert store.op_pages[0][warp.pc] == ops[1].pages(PAGE_SHIFT)
        assert store.op_store_pages[0][warp.pc] == ops[1].store_pages(PAGE_SHIFT)

    def test_state_view_reads_every_state(self):
        for state in WarpState:
            warp, _ = two_op_warp()
            drive(warp, state)
            assert warp.state is state
            assert warp.finished is (state is WarpState.FINISHED)

    def test_issue_skips_finished_warp(self):
        warp, _ = two_op_warp()
        drive(warp, WarpState.FINISHED)
        assert not warp.store.issue(warp.index)
        assert warp.store.block_counts[0] == [0, 0, 0, 0, 1]


class TestCheckedWarpStore:
    def checked(self, op_lists):
        validator = TransitionValidator(WARP_LIFECYCLE)
        return make_store(op_lists, validator=validator), validator

    def test_counts_every_declared_move(self):
        store, validator = self.checked([[WarpOp(1, (0,))], []])
        assert validator.counts == {"finish": 1}  # the no-op warp, at build
        store.issue(0)
        store.stall(0, [3], 0)
        store.stall(0, [4], 0)
        store.page_arrived(0, 3, 10)
        store.page_arrived(0, 4, 20)
        store.suspend(0)
        store.resume(0)
        store.issue(0)
        store.preempt(0)
        store.resume(0)
        store.issue(0)
        store.issue(0)  # a parked running warp re-issues in place
        store.finish(0)
        assert validator.counts == {
            "finish": 2,
            "issue": 3,
            "stall": 1,
            "restall": 1,
            "wake": 1,
            "suspend": 1,
            "resume": 2,
            "preempt": 1,
        }

    def test_undeclared_move_raises_and_changes_nothing(self):
        store, _ = self.checked([[WarpOp(1, (0,))]])
        with pytest.raises(IllegalTransition):
            store.preempt(0)  # a ready warp has no op in flight
        assert store.state == [READY]
        assert store.block_counts[0] == [1, 0, 0, 0, 0]

    def test_pickles_with_its_validator(self):
        store, _ = self.checked([[WarpOp(1, (0,))]])
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is CheckedWarpStore
        assert clone.validator.counts == store.validator.counts
        assert clone.op_compute == store.op_compute


def make_block(n_warps=4, ops_per_warp=2):
    op_lists = [
        [WarpOp(1, (4096 * (w + o),)) for o in range(ops_per_warp)]
        for w in range(n_warps)
    ]
    return ThreadBlock(0, make_store(op_lists).warps)


def set_states(block, states):
    for warp, state in zip(block.warps, states):
        drive(warp, state)


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
        set_states(block, [WarpState.STALLED] * 4)
        assert block.suspend_runnable_warps() == []
        assert block.resume_suspended_warps() == []

    def test_contiguity_enforced(self):
        store = make_store([[WarpOp(1, (0,))] for _ in range(3)])
        with pytest.raises(ValueError):
            ThreadBlock(0, [store.warps[0], store.warps[2]])

    def test_block_must_be_one_whole_store_block(self):
        store = make_store([[WarpOp(1, (0,))] for _ in range(4)], warps_per_block=2)
        with pytest.raises(ValueError):
            ThreadBlock(0, store.warps[1:3])  # straddles two blocks
        with pytest.raises(ValueError):
            ThreadBlock(0, store.warps[:1])  # half a block

    def test_block_slice_offsets(self):
        # Two blocks over one store: predicates must only see their slice.
        op_lists = [[WarpOp(1, (4096 * i,))] for i in range(4)]
        store = make_store(op_lists, warps_per_block=2)
        first = ThreadBlock(0, store.warps[:2])
        second = ThreadBlock(1, store.warps[2:])
        for warp in first.warps:
            drive(warp, WarpState.STALLED)
        assert first.fully_stalled()
        assert not second.fully_stalled()
        assert second.ready_to_run()


#: Store-level moves the property test draws from; each is applied only
#: from a state where the store makes it (see ``apply``).
MOVES = (
    "issue",
    "stall",
    "arrive",
    "suspend",
    "preempt",
    "resume",
    "finish",
    "switch_out",
    "switch_in",
)


def apply(blocks, store, move, i, page, now):
    """Make ``move`` on warp ``i`` (or its block) when the machine allows
    it from the warp's state; otherwise do nothing."""
    code = store.state[i]
    block = next(b for b in blocks if b.lo <= i < b.hi)
    if move == "issue" and code not in (STALLED, SUSPENDED):
        # Declared from ready; re-issuing a parked running warp and
        # scheduling a finished one are the store's two no-move cases.
        store.issue(i)
    elif move == "stall" and code in (READY, RUNNING, STALLED):
        store.stall(i, [page], now)
    elif move == "arrive":
        store.page_arrived(i, page, now)  # any state: duplicate waiters
    elif move == "suspend" and code == READY:
        store.suspend(i)
    elif move == "preempt" and code == RUNNING:
        store.preempt(i)
    elif move == "resume" and code == SUSPENDED:
        store.resume(i)
    elif move == "finish" and code == RUNNING:
        store.finish(i)
    elif move == "switch_out":
        block.suspend_runnable_warps()
    elif move == "switch_in":
        block.resume_suspended_warps()


class TestBlockCountsProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(st.integers(0, 2), min_size=1, max_size=10),
        warps_per_block=st.integers(1, 4),
        steps=st.lists(
            st.tuples(
                st.sampled_from(MOVES), st.integers(0, 9), st.integers(0, 2)
            ),
            max_size=60,
        ),
    )
    def test_counts_match_a_scan_after_every_move(self, ops, warps_per_block, steps):
        op_lists = [[WarpOp(1, (4096 * k,)) for k in range(n)] for n in ops]
        # The checking store raises on any move the machine does not
        # declare, so the sequence is legal as well as random.
        validator = TransitionValidator(WARP_LIFECYCLE)
        store = make_store(
            op_lists, warps_per_block=warps_per_block, validator=validator
        )
        bounds = list(range(0, len(ops), warps_per_block)) + [len(ops)]
        blocks = [
            ThreadBlock(b, store.warps[lo:hi])
            for b, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        for now, (move, warp, page) in enumerate(steps):
            apply(blocks, store, move, warp % len(ops), page, now)
            for block in blocks:
                states = [w.state for w in block.warps]
                mem_wait = [w.mem_wait for w in block.warps]
                assert predicates(block) == predicate_spec(states, mem_wait)
                assert block.counts == [
                    store.state[block.lo : block.hi].count(code)
                    for code in range(len(WarpState))
                ]


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
