"""Unit tests for the warp model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.warp import WarpState
from repro.gpu.warp_soa import _sorted_unique
from tests import warp_factory
from tests.warp_factory import arrive, run_op, stall
from tests.warp_ops import WarpOp


def make_warp(ops=None):
    ops = ops if ops is not None else [WarpOp(8, (0x100,)), WarpOp(8, (0x200,))]
    return warp_factory.make_warp(ops)


def derived(op):
    """``op``'s derived pages, lines and store pages (4 KB pages)."""
    store = warp_factory.make_store([[op]])
    return store.op_pages[0][0], store.op_lines[0][0], store.op_store_pages[0][0]


class TestWarpOp:
    def test_lines_deduplicate_and_sort(self):
        _, lines, _ = derived(WarpOp(8, (256, 300, 128, 130)))
        # 128-byte lines: 256 and 300 share line 2; 128 and 130 share line 1.
        assert lines == (1, 2)

    def test_pages_deduplicate_and_sort(self):
        pages, _, _ = derived(WarpOp(8, (0x1000, 0x1FFF, 0x3000)))
        assert pages == (1, 3)

    def test_empty_addresses(self):
        assert derived(WarpOp(4)) == ((), (), ())

    def test_store_flag(self):
        assert derived(WarpOp(1, (0,), is_store=True))[2] == (0,)

    @pytest.mark.parametrize("time_scale", [0.5, 0.25, 1 / 3, 2.5])
    def test_compute_scales_and_rounds_half_to_even(self, time_scale):
        cycles = [1, 2, 3, 5, 6, 7, 10, 13, 1000]
        store = warp_factory.make_store(
            [[WarpOp(c, (64 * c,)) for c in cycles]], time_scale=time_scale
        )
        want = tuple(max(1, round(c * time_scale)) for c in cycles)
        assert store.op_compute[0] == want
        assert all(type(c) is int for c in store.op_compute[0])


def sorted_unique_of(ops):
    values = np.array([v for op in ops for v in op], dtype=np.int64)
    ends = np.cumsum([len(op) for op in ops], dtype=np.int64)
    return _sorted_unique(values, ends)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.just([]),  # an op with no kept address (masked store pages)
                st.lists(st.integers(0, 40), max_size=12),
                st.lists(st.integers(-(2**40), 2**40), max_size=6),
            ),
            max_size=20,
        )
    )
    def test_matches_per_op_sorted_set(self, ops):
        got = sorted_unique_of(ops)
        assert got == [tuple(sorted(set(op))) for op in ops]
        assert all(type(op) is tuple for op in got)
        # Equal values in different ops are one object.
        first = {}
        for op in got:
            for value in op:
                assert type(value) is int
                assert first.setdefault(value, value) is value

    def test_masked_store_pages_keep_empty_ops(self):
        # Page numbers above CPython's small-int cache, so sharing is real.
        base = 1 << 32
        ops = [
            WarpOp(1, (base + 0x1000, base + 0x1040)),
            WarpOp(1, (base + 0x3000, base + 0x2000, base + 0x3000), is_store=True),
            WarpOp(1),
            WarpOp(1, (base + 0x2000,), is_store=True),
        ]
        store = warp_factory.make_store([ops])
        page = base >> warp_factory.PAGE_SHIFT
        assert store.op_store_pages[0] == ((), (page + 2, page + 3), (), (page + 2,))
        assert store.op_pages[0] == ((page + 1,), (page + 2, page + 3), (), (page + 2,))
        assert store.op_store_pages[0][1][0] is store.op_store_pages[0][3][0]
        assert store.op_pages[0][1][0] is store.op_pages[0][3][0]

    def test_rejects_keys_that_overflow_int64(self):
        with pytest.raises(OverflowError):
            sorted_unique_of([[0], [2**62]])
        assert sorted_unique_of([[0, 2**62]]) == [(0, 2**62)]


class TestWarpLifecycle:
    def test_initial_state(self):
        warp = make_warp()
        assert warp.state is WarpState.READY
        assert warp.pc == 0
        assert not warp.finished
        assert len(warp.store.op_compute[0]) == 2

    def test_advance_to_finish(self):
        warp = make_warp()
        run_op(warp)
        # The fused retire-and-issue leaves the warp running.
        assert warp.state is WarpState.RUNNING
        assert warp.pc == 1
        run_op(warp)
        assert warp.finished
        assert warp.pc == 2

    def test_stall_and_wake_single_page(self):
        warp = make_warp()
        stall(warp, [7], now=100)
        assert warp.state is WarpState.STALLED
        assert arrive(warp, 7, now=400)
        assert warp.state is WarpState.READY
        assert warp.stalled_cycles == 300

    def test_wake_requires_all_pages(self):
        warp = make_warp()
        stall(warp, [1, 2, 3])
        assert not arrive(warp, 1, now=10)
        assert not arrive(warp, 3, now=20)
        assert warp.state is WarpState.STALLED
        assert arrive(warp, 2, now=30)
        assert warp.state is WarpState.READY

    def test_unrelated_page_arrival_ignored(self):
        warp = make_warp()
        stall(warp, [5])
        assert not arrive(warp, 99, now=10)
        assert warp.state is WarpState.STALLED

    def test_stalled_cycles_accumulate(self):
        warp = make_warp()
        stall(warp, [1], now=0)
        arrive(warp, 1, now=100)
        stall(warp, [2], now=150)
        arrive(warp, 2, now=250)
        assert warp.stalled_cycles == 200

    def test_current_op_tracks_pc(self):
        warp = make_warp([WarpOp(1, (0,)), WarpOp(2, (128,))])
        store = warp.store
        assert store.op_compute[0][warp.pc] == 1
        run_op(warp)
        assert store.op_compute[0][warp.pc] == 2
        assert store.op_lines[0][warp.pc] == (1,)

    def test_restall_preserves_stall_start(self):
        # Regression: stalling an already-STALLED warp (a replay faulting
        # on a new page set while earlier faults are outstanding) used to
        # overwrite stall_start, silently dropping the already-accrued
        # stall time from stalled_cycles.
        warp = make_warp()
        stall(warp, [1], now=100)
        stall(warp, [2], now=500)
        assert warp.store.stall_start[0] == 100
        assert not arrive(warp, 1, now=900)
        assert arrive(warp, 2, now=1000)
        assert warp.stalled_cycles == 900  # since 100, not since 500

    def test_restall_waits_for_every_page(self):
        warp = make_warp()
        stall(warp, [1], now=0)
        stall(warp, [2, 3], now=50)
        assert not arrive(warp, 1, now=60)
        assert not arrive(warp, 3, now=70)
        assert warp.state is WarpState.STALLED
        assert arrive(warp, 2, now=80)
        assert warp.stalled_cycles == 80
