"""Additional warp-model coverage: stores, dependence, memoisation."""

from repro.gpu.warp import WarpOp, WarpState
from tests.warp_factory import make_warp


class TestStoreAddresses:
    def test_is_store_without_subset_marks_all(self):
        op = WarpOp(8, (0x1000, 0x2000), is_store=True)
        assert op.store_addresses == op.addresses
        assert op.store_pages(12) == op.pages(12)

    def test_subset_implies_is_store(self):
        op = WarpOp(8, (0x1000, 0x2000), store_addresses=(0x2000,))
        assert op.is_store
        assert op.store_pages(12) == (2,)

    def test_empty_subset_means_pure_load(self):
        op = WarpOp(8, (0x1000,), store_addresses=())
        assert not op.is_store
        assert op.store_pages(12) == ()

    def test_pure_load_default(self):
        op = WarpOp(8, (0x1000,))
        assert not op.is_store
        assert op.store_pages(12) == ()


class TestMemoisation:
    def test_pages_memo_invalidated_by_shift_change(self):
        op = WarpOp(8, (0x1000, 0x2000))
        assert op.pages(12) == (1, 2)
        assert op.pages(13) == (0, 1)
        assert op.pages(12) == (1, 2)

    def test_lines_memoised(self):
        op = WarpOp(8, (0, 1, 128))
        assert op.lines() is op.lines()

    def test_independent_pages_memo_per_shift(self):
        op = WarpOp(8, (0x1000, 0x2000), dependent_addresses=(0x2000,))
        assert op.independent_pages(12) == (1,)
        assert op.independent_pages(13) == (0,)


class TestWarpStates:
    def test_suspend_resume_preserves_waiting_pages(self):
        warp = make_warp([WarpOp(8, (0x1000,))])
        warp.stall_on([5, 6], 0, 0)
        # A context switch does not disturb the fault wait.
        assert warp.state is WarpState.STALLED
        warp.page_arrived(5, 10)
        assert warp.waiting_pages == {6}

    def test_wake_in_suspended_state_returns_false(self):
        warp = make_warp([WarpOp(8, (0x1000,))])
        warp.stall_on([5], 0, 0)
        warp.state = WarpState.SUSPENDED  # block switched out after stall
        # page_arrived drains the wait but the warp is suspended, so the
        # caller must not schedule it.
        assert not warp.page_arrived(5, 10)
        assert not warp.waiting_pages

    def test_finished_warp_reports_no_remaining_ops(self):
        warp = make_warp([WarpOp(8, (0x1000,))])
        warp.advance()
        assert warp.finished
        assert warp.remaining_ops == 0
