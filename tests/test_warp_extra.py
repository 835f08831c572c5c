"""Additional warp-model coverage: stores, dependence, memoisation."""

from repro.gpu.warp import WarpState
from repro.gpu.warp_soa import kernel_derived, kernel_independent
from tests.warp_factory import make_store, make_warp
from tests.warp_ops import WarpOp, kernel_of


def pages_and_store_pages(op):
    store = make_store([[op]])
    return store.op_pages[0][0], store.op_store_pages[0][0]


class TestStoreAddresses:
    def test_is_store_without_subset_marks_all(self):
        pages, stored = pages_and_store_pages(WarpOp(8, (0x1000, 0x2000), is_store=True))
        assert stored == pages == (1, 2)

    def test_subset_implies_is_store(self):
        op = WarpOp(8, (0x1000, 0x2000), store_addresses=(0x2000,))
        assert op.is_store
        assert pages_and_store_pages(op)[1] == (2,)

    def test_empty_subset_means_pure_load(self):
        op = WarpOp(8, (0x1000,), store_addresses=())
        assert not op.is_store
        assert pages_and_store_pages(op)[1] == ()

    def test_pure_load_default(self):
        assert pages_and_store_pages(WarpOp(8, (0x1000,)))[1] == ()


class TestMemoisation:
    def test_pages_memo_invalidated_by_shift_change(self):
        kernel = kernel_of([[WarpOp(8, (0x1000, 0x2000))]])
        assert kernel_derived(kernel, 12, 1.0)[0][0] == ((1, 2),)
        assert kernel_derived(kernel, 13, 1.0)[0][0] == ((0, 1),)
        assert kernel_derived(kernel, 12, 1.0)[0][0] == ((1, 2),)

    def test_lines_memoised(self):
        kernel = kernel_of([[WarpOp(8, (0, 1, 128))]])
        derived = kernel_derived(kernel, 12, 1.0)
        assert derived[0][1] == ((0, 1),)
        assert kernel_derived(kernel, 12, 1.0) is derived

    def test_independent_pages_memo_per_shift(self):
        kernel = kernel_of(
            [[WarpOp(8, (0x1000, 0x2000), dependent_addresses=(0x2000,))]]
        )
        assert kernel_independent(kernel, 12)[0] == ((1,),)
        assert kernel_independent(kernel, 13)[0] == ((0,),)
        assert kernel_independent(kernel, 12) is kernel_independent(kernel, 12)


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
