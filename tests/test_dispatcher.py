"""Unit tests for the grid dispatcher."""

from repro.gpu.config import GpuConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources
from repro.gpu.dispatcher import Dispatcher
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import BlockState
from repro.sim.engine import Engine
from tests.warp_factory import make_block, run_op
from tests.warp_ops import WarpOp


def make_blocks(n, warps=1):
    return [
        make_block(i, [[WarpOp(8, (w * 4096,))] for w in range(warps)])
        for i in range(n)
    ]


def make_sms(engine, count=2, active_limit=2):
    def schedule_warp(warp, delay):
        warp.store.issue(warp.index)

    return [
        StreamingMultiprocessor(
            i,
            engine,
            active_limit,
            ContextCostModel(GpuConfig()),
            KernelResources(),
            schedule_warp,
        )
        for i in range(count)
    ]


def test_launch_fills_active_slots_round_robin():
    engine = Engine()
    sms = make_sms(engine, count=2, active_limit=2)
    blocks = make_blocks(6)
    dispatcher = Dispatcher(sms, blocks)
    dispatcher.launch()
    assert all(len(sm.active_blocks) == 2 for sm in sms)
    assert len(dispatcher.pending) == 2


def test_launch_with_fewer_blocks_than_slots():
    engine = Engine()
    sms = make_sms(engine, count=2, active_limit=2)
    dispatcher = Dispatcher(sms, make_blocks(3))
    dispatcher.launch()
    assert len(sms[0].active_blocks) + len(sms[1].active_blocks) == 3


def test_extra_blocks_dispatched_inactive():
    engine = Engine()
    sms = make_sms(engine, count=1, active_limit=2)
    dispatcher = Dispatcher(sms, make_blocks(5), extra_blocks_allowed=lambda: 2)
    dispatcher.launch()
    assert len(sms[0].active_blocks) == 2
    assert len(sms[0].inactive_blocks) == 2
    assert len(dispatcher.pending) == 1


def test_block_finished_refills_from_pending():
    engine = Engine()
    sms = make_sms(engine, count=1, active_limit=1)
    blocks = make_blocks(3)
    dispatcher = Dispatcher(sms, blocks)
    dispatcher.launch()
    for warp in blocks[0].warps:
        run_op(warp)
    dispatcher.block_finished(blocks[0])
    assert blocks[0].state is BlockState.FINISHED
    assert blocks[1].state is BlockState.ACTIVE
    assert dispatcher.unfinished == 2


def test_ready_inactive_promoted_before_pending():
    engine = Engine()
    sms = make_sms(engine, count=1, active_limit=1)
    blocks = make_blocks(4)
    dispatcher = Dispatcher(sms, blocks, extra_blocks_allowed=lambda: 1)
    dispatcher.launch()
    inactive = sms[0].inactive_blocks[0]
    for warp in blocks[0].warps:
        run_op(warp)
    dispatcher.block_finished(blocks[0])
    engine.run()
    assert inactive.state is BlockState.ACTIVE


def test_kernel_done_callback():
    engine = Engine()
    sms = make_sms(engine, count=1, active_limit=2)
    blocks = make_blocks(2)
    done = []
    dispatcher = Dispatcher(sms, blocks, on_kernel_done=lambda: done.append(True))
    dispatcher.launch()
    for block in blocks:
        for warp in block.warps:
            run_op(warp)
        dispatcher.block_finished(block)
    assert done == [True]


def test_top_up_responds_to_allowance_growth():
    engine = Engine()
    sms = make_sms(engine, count=1, active_limit=1)
    allowance = {"extra": 0}
    dispatcher = Dispatcher(
        sms, make_blocks(4), extra_blocks_allowed=lambda: allowance["extra"]
    )
    dispatcher.launch()
    assert len(sms[0].inactive_blocks) == 0
    allowance["extra"] = 2
    dispatcher.top_up()
    assert len(sms[0].inactive_blocks) == 2
