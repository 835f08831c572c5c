"""Unit tests for the thread-block model."""

from repro.gpu.thread_block import BlockState
from repro.gpu.warp import WarpState
from tests import warp_factory
from tests.warp_factory import run_op, stall
from tests.warp_ops import WarpOp


def make_block(num_warps=2):
    return warp_factory.make_block(
        0, [[WarpOp(8, (i * 0x100,))] for i in range(num_warps)]
    )


def test_block_links_warps_back():
    block = make_block()
    assert all(w.block is block for w in block.warps)


def test_initial_state_pending():
    assert make_block().state is BlockState.PENDING


def test_not_finished_initially():
    assert not make_block().finished


def test_finished_when_all_warps_finished():
    block = make_block()
    for warp in block.warps:
        run_op(warp)
    assert block.finished


def test_fully_stalled_requires_all_warps_stalled():
    block = make_block()
    stall(block.warps[0], [1])
    assert not block.fully_stalled()
    stall(block.warps[1], [2])
    assert block.fully_stalled()


def test_fully_stalled_with_finished_warp():
    block = make_block()
    run_op(block.warps[0])  # finished
    stall(block.warps[1], [1])
    assert block.fully_stalled()


def test_all_finished_is_not_stalled():
    block = make_block()
    for warp in block.warps:
        run_op(warp)
    assert not block.fully_stalled()


def test_fully_mem_stalled():
    block = make_block()
    block.warps[0].mem_wait = True
    assert not block.fully_mem_stalled()
    stall(block.warps[1], [3])
    assert block.fully_mem_stalled()


def test_suspend_and_resume_runnable_warps():
    block = make_block()
    suspended = block.suspend_runnable_warps()
    assert len(suspended) == 2
    assert all(w.state is WarpState.SUSPENDED for w in block.warps)
    resumed = block.resume_suspended_warps()
    assert len(resumed) == 2
    assert all(w.state is WarpState.READY for w in block.warps)


def test_suspend_skips_stalled_warps():
    block = make_block()
    stall(block.warps[0], [1])
    suspended = block.suspend_runnable_warps()
    assert len(suspended) == 1
    assert block.warps[0].state is WarpState.STALLED


def test_ready_to_run_with_suspended_warp():
    block = make_block()
    block.suspend_runnable_warps()
    assert block.ready_to_run()


def test_not_ready_when_all_stalled():
    block = make_block()
    for warp in block.warps:
        stall(warp, [9])
    assert not block.ready_to_run()
