"""Unit tests for the warp model."""

from repro.gpu.warp import WarpOp, WarpState
from tests import warp_factory


def make_warp(ops=None):
    ops = ops if ops is not None else [WarpOp(8, (0x100,)), WarpOp(8, (0x200,))]
    return warp_factory.make_warp(ops)


class TestWarpOp:
    def test_lines_deduplicate_and_sort(self):
        op = WarpOp(8, (256, 300, 128, 130))
        # 128-byte lines: 256 and 300 share line 2; 128 and 130 share line 1.
        assert op.lines() == (1, 2)

    def test_pages_deduplicate_and_sort(self):
        shift = 12  # 4 KB pages
        op = WarpOp(8, (0x1000, 0x1FFF, 0x3000))
        assert op.pages(shift) == (1, 3)

    def test_empty_addresses(self):
        op = WarpOp(4)
        assert op.lines() == ()
        assert op.pages(16) == ()

    def test_store_flag(self):
        assert WarpOp(1, (0,), is_store=True).is_store


class TestWarpLifecycle:
    def test_initial_state(self):
        warp = make_warp()
        assert warp.state is WarpState.READY
        assert warp.pc == 0
        assert not warp.finished
        assert warp.remaining_ops == 2

    def test_advance_to_finish(self):
        warp = make_warp()
        warp.advance()
        assert warp.state is WarpState.READY
        warp.advance()
        assert warp.finished
        assert warp.remaining_ops == 0

    def test_stall_and_wake_single_page(self):
        warp = make_warp()
        warp.stall_on([7], now=100, replay_latency=0)
        assert warp.state is WarpState.STALLED
        assert warp.page_arrived(7, now=400)
        assert warp.state is WarpState.READY
        assert warp.stalled_cycles == 300

    def test_wake_requires_all_pages(self):
        warp = make_warp()
        warp.stall_on([1, 2, 3], now=0, replay_latency=0)
        assert not warp.page_arrived(1, now=10)
        assert not warp.page_arrived(3, now=20)
        assert warp.state is WarpState.STALLED
        assert warp.page_arrived(2, now=30)
        assert warp.state is WarpState.READY

    def test_unrelated_page_arrival_ignored(self):
        warp = make_warp()
        warp.stall_on([5], now=0, replay_latency=0)
        assert not warp.page_arrived(99, now=10)
        assert warp.state is WarpState.STALLED

    def test_stalled_cycles_accumulate(self):
        warp = make_warp()
        warp.stall_on([1], now=0, replay_latency=0)
        warp.page_arrived(1, now=100)
        warp.stall_on([2], now=150, replay_latency=0)
        warp.page_arrived(2, now=250)
        assert warp.stalled_cycles == 200

    def test_current_op_tracks_pc(self):
        ops = [WarpOp(1, (0,)), WarpOp(2, (128,))]
        warp = make_warp(ops)
        assert warp.current_op() is ops[0]
        warp.advance()
        assert warp.current_op() is ops[1]

    def test_restall_preserves_stall_start(self):
        # Regression: stalling an already-STALLED warp (a replay faulting
        # on a new page set while earlier faults are outstanding) used to
        # overwrite stall_start, silently dropping the already-accrued
        # stall time from stalled_cycles.
        warp = make_warp()
        warp.stall_on([1], now=100, replay_latency=40)
        warp.stall_on([2], now=500, replay_latency=25)
        assert warp.stall_start == 100
        # Replay latencies merge by max (overlapping replays), not by
        # overwrite with the latest.
        assert warp.resume_latency == 40
        assert not warp.page_arrived(1, now=900)
        assert warp.page_arrived(2, now=1000)
        assert warp.stalled_cycles == 900  # since 100, not since 500

    def test_restall_merges_larger_replay_latency(self):
        warp = make_warp()
        warp.stall_on([1], now=0, replay_latency=10)
        warp.stall_on([2], now=50, replay_latency=70)
        assert warp.resume_latency == 70
