"""Unit tests for the SM's block-slot management and context switching."""

import pytest

from repro.errors import SimulationError
from repro.gpu.config import GpuConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.occupancy import KernelResources
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import BlockState
from repro.gpu.warp import WarpState
from repro.sim.engine import Engine
from tests import warp_factory
from tests.warp_ops import WarpOp


def make_block(block_id=0, num_warps=2):
    return warp_factory.make_block(
        block_id, [[WarpOp(8, (i * 4096,))] for i in range(num_warps)]
    )


def make_sm(active_limit=2, allow=lambda: True, forced=False):
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
        allow,
        forced,
    )
    return engine, sm, scheduled


def stall_block(block):
    for warp in block.warps:
        warp.stall_on([99 + warp.warp_id], 0, 0)


class TestDispatch:
    def test_active_dispatch_schedules_warps(self):
        _engine, sm, scheduled = make_sm()
        block = make_block()
        sm.dispatch(block, active=True)
        assert block.state is BlockState.ACTIVE
        assert len(scheduled) == 2

    def test_inactive_dispatch_suspends_warps(self):
        _engine, sm, scheduled = make_sm()
        block = make_block()
        sm.dispatch(block, active=False)
        assert block.state is BlockState.INACTIVE
        assert scheduled == []
        assert all(w.state is WarpState.SUSPENDED for w in block.warps)

    def test_active_slots_enforced(self):
        _engine, sm, _ = make_sm(active_limit=1)
        sm.dispatch(make_block(0), active=True)
        with pytest.raises(SimulationError):
            sm.dispatch(make_block(1), active=True)

    def test_double_dispatch_rejected(self):
        _engine, sm, _ = make_sm()
        block = make_block()
        sm.dispatch(block, active=True)
        with pytest.raises(SimulationError):
            sm.dispatch(block, active=True)


class TestContextSwitch:
    def test_switch_swaps_stalled_active_with_ready_inactive(self):
        engine, sm, scheduled = make_sm(active_limit=1)
        active = make_block(0)
        extra = make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        scheduled.clear()

        stall_block(active)
        assert sm.try_context_switch(active)
        assert active.state is BlockState.INACTIVE
        assert extra.state is BlockState.SWITCHING
        engine.run()
        assert extra.state is BlockState.ACTIVE
        assert len(scheduled) == 2  # extra's warps started
        assert sm.context_switches == 1
        assert sm.switch_cycles_spent > 0

    def test_switch_sets_issue_stall_window(self):
        engine, sm, _ = make_sm(active_limit=1)
        active, extra = make_block(0), make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        stall_block(active)
        sm.try_context_switch(active)
        assert sm.switch_busy_until > engine.now

    def test_no_switch_without_ready_inactive(self):
        _engine, sm, _ = make_sm(active_limit=1)
        active = make_block(0)
        sm.dispatch(active, active=True)
        stall_block(active)
        assert not sm.try_context_switch(active)

    def test_no_switch_when_disallowed(self):
        _engine, sm, _ = make_sm(active_limit=1, allow=lambda: False)
        active, extra = make_block(0), make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        stall_block(active)
        assert not sm.try_context_switch(active)

    def test_on_warp_stalled_triggers_switch(self):
        engine, sm, _ = make_sm(active_limit=1)
        active, extra = make_block(0), make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        stall_block(active)
        sm.on_warp_stalled(active.warps[-1])
        engine.run()
        assert extra.state is BlockState.ACTIVE

    def test_stalled_inactive_block_not_switched_in(self):
        _engine, sm, _ = make_sm(active_limit=1)
        active, extra = make_block(0), make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        stall_block(extra)  # the extra block is itself waiting on pages
        stall_block(active)
        assert not sm.try_context_switch(active)


class TestBlockReady:
    def test_ready_block_fills_free_slot(self):
        engine, sm, scheduled = make_sm(active_limit=2)
        block = make_block()
        sm.dispatch(block, active=False)
        scheduled.clear()
        sm.on_block_ready(block)
        engine.run()
        assert block.state is BlockState.ACTIVE
        assert len(scheduled) == 2

    def test_ready_block_preempts_fully_stalled_active(self):
        engine, sm, _ = make_sm(active_limit=1)
        active, extra = make_block(0), make_block(1)
        sm.dispatch(active, active=True)
        sm.dispatch(extra, active=False)
        stall_block(active)
        sm.on_block_ready(extra)
        engine.run()
        assert extra.state is BlockState.ACTIVE
        assert active.state is BlockState.INACTIVE


class TestRetireAndThrottle:
    def test_retire_active_block(self):
        _engine, sm, _ = make_sm()
        block = make_block()
        sm.dispatch(block, active=True)
        sm.retire_block(block)
        assert block.state is BlockState.FINISHED
        assert sm.free_active_slots == 2

    def test_retire_inactive_block(self):
        _engine, sm, _ = make_sm()
        block = make_block()
        sm.dispatch(block, active=False)
        sm.retire_block(block)
        assert block.state is BlockState.FINISHED

    def test_retire_pending_block_rejected(self):
        _engine, sm, _ = make_sm()
        with pytest.raises(SimulationError):
            sm.retire_block(make_block())

    def test_unthrottle_reschedules_parked_warps(self):
        _engine, sm, scheduled = make_sm()
        block = make_block()
        sm.dispatch(block, active=True)
        scheduled.clear()
        sm.set_throttled(True)
        sm.park(block.warps[0])
        sm.set_throttled(False)
        assert len(scheduled) == 1

    def test_set_throttled_idempotent(self):
        _engine, sm, scheduled = make_sm()
        sm.set_throttled(True)
        sm.park(make_block().warps[0])
        sm.set_throttled(True)  # no-op: parked warps stay parked
        assert len(sm.parked_warps) == 1
