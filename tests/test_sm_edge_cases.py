"""Edge cases in SM slot management and the warp execution contract."""

import pytest

from repro.gpu.config import GpuConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import BlockState
from repro.gpu.warp import WarpState
from repro.sim.engine import Engine
from tests import warp_factory
from tests.warp_ops import WarpOp


def make_sm(active_limit=1, forced=False):
    engine = Engine()
    scheduled = []

    def schedule_warp(warp, delay):
        warp.state = WarpState.RUNNING
        scheduled.append((warp, delay))

    sm = StreamingMultiprocessor(
        0,
        engine,
        active_limit,
        ContextCostModel(GpuConfig()),
        KernelResources(),
        schedule_warp,
        lambda: True,
        forced,
    )
    return engine, sm, scheduled


def make_block(block_id=0, num_warps=2):
    return warp_factory.make_block(
        block_id, [[WarpOp(8, (i * 4096,))] for i in range(num_warps)]
    )


def stall_block(block):
    for warp in block.warps:
        warp.stall_on([99 + warp.warp_id], 0, 0)


class TestSwitchTransitions:
    def test_switching_block_counts_against_slots(self):
        engine, sm, _ = make_sm(active_limit=1)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        stall_block(a)
        sm.try_context_switch(a)
        # During the transition neither block occupies an active slot, but
        # the slot is reserved.
        assert sm.free_active_slots == 0
        engine.run()
        assert sm.free_active_slots == 0
        assert b.state is BlockState.ACTIVE

    def test_resident_blocks_count(self):
        _engine, sm, _ = make_sm(active_limit=2)
        sm.dispatch(make_block(0), active=True)
        sm.dispatch(make_block(1), active=False)
        assert sm.resident_blocks == 2

    def test_switch_out_increments_block_counters(self):
        engine, sm, _ = make_sm(active_limit=1)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        stall_block(a)
        sm.try_context_switch(a)
        engine.run()
        assert a.context_switches == 1
        assert b.context_switches == 1

    def test_second_switch_back(self):
        engine, sm, _ = make_sm(active_limit=1)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        stall_block(a)
        sm.try_context_switch(a)
        engine.run()
        # a's pages arrive: its stalled warps wake -> a is ready again.
        for warp in a.warps:
            warp.page_arrived(99 + warp.warp_id, 100)
            warp.state = WarpState.SUSPENDED
        stall_block(b)
        assert sm.try_context_switch(b)
        engine.run()
        assert a.state is BlockState.ACTIVE
        assert b.state is BlockState.INACTIVE
        assert sm.context_switches == 2

    def test_switch_cost_accumulates(self):
        engine, sm, _ = make_sm(active_limit=1)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        stall_block(a)
        sm.try_context_switch(a)
        cost = sm.context_cost.switch_cycles(sm.kernel_resources)
        assert sm.switch_cycles_spent == cost


class TestBlockReadyRace:
    def test_on_block_ready_ignores_active_block(self):
        _engine, sm, _ = make_sm(active_limit=1)
        a = make_block(0)
        sm.dispatch(a, active=True)
        sm.on_block_ready(a)  # no-op, no crash
        assert a.state is BlockState.ACTIVE

    def test_ready_inactive_with_no_slot_and_busy_actives_waits(self):
        _engine, sm, _ = make_sm(active_limit=1)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)  # runnable, not stalled
        sm.dispatch(b, active=False)
        sm.on_block_ready(b)
        assert b.state is BlockState.INACTIVE  # must wait


class TestForcedMode:
    def test_mem_wait_trigger_only_in_forced_mode(self):
        engine, sm, _ = make_sm(active_limit=1, forced=False)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        for warp in a.warps:
            warp.mem_wait = True
        sm.on_warp_mem_wait(a.warps[0])
        assert a.state is BlockState.ACTIVE  # not forced: no switch

    def test_mem_wait_switches_in_forced_mode(self):
        engine, sm, _ = make_sm(active_limit=1, forced=True)
        a, b = make_block(0), make_block(1)
        sm.dispatch(a, active=True)
        sm.dispatch(b, active=False)
        for warp in a.warps:
            warp.mem_wait = True
        sm.on_warp_mem_wait(a.warps[0])
        engine.run()
        assert b.state is BlockState.ACTIVE
