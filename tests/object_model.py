"""The object warp model: a reference oracle for the golden corpus.

The simulator keeps warp state in struct-of-arrays form
(:mod:`repro.gpu.warp_soa`) and issues ops through inlined hot loops.
This module keeps the plain per-warp-object model those loops were
derived from — one :class:`Warp` object per warp, block predicates that
loop over warp fields, and an issue path that calls
:meth:`~repro.vm.mmu.GpuMmu.translate` and
:meth:`~repro.gpu.caches.CacheHierarchy.access_lines` directly — as an
independent implementation of the same timing model.  Its warps run
:class:`~tests.warp_ops.WarpOp` lists read back from the kernel's
columns, each op deriving its own pages and lines, so the oracle also
re-derives the trace independently of
:func:`~repro.gpu.warp_soa.kernel_derived`.

:class:`ObjectModelSimulator` swaps it into :class:`GpuUvmSimulator` by
overriding the kernel build, issue, schedule, wake, runahead and
retired-op count methods.  The
golden tests run both models against the recorded corpus, and
``--regenerate`` records new goldens from this model rather than from
the code under test.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import BlockState
from repro.gpu.warp import WarpState
from repro.simulator import GpuUvmSimulator, _ExecuteOpEvent, _WarpCompletedEvent
from tests.warp_ops import WarpOp, ops_of


class Warp:
    """A warp executing a trace of :class:`WarpOp` items."""

    __slots__ = (
        "warp_id",
        "block",
        "ops",
        "pc",
        "state",
        "waiting_pages",
        "resume_latency",
        "stall_start",
        "stalled_cycles",
        "mem_wait",
        "replay_pending",
        "exec_event",
        "complete_event",
        "validator",
    )

    def __init__(self, warp_id: int, ops: Sequence[WarpOp], block=None) -> None:
        self.warp_id = warp_id
        self.block = block
        self.ops = ops
        self.pc = 0
        self.state = WarpState.READY
        self.waiting_pages: set[int] = set()
        #: Interned engine events (set by the simulator): one reusable
        #: bound-argument object per warp for the hot op-issue/completion
        #: schedulings, instead of a fresh closure per event.
        self.exec_event = None
        self.complete_event = None
        #: Latency still owed to the in-flight op when the warp resumes
        #: after its faults are serviced (the memory access replays).
        self.resume_latency = 0
        self.stall_start = 0
        self.stalled_cycles = 0
        #: True while the warp's in-flight access is waiting on DRAM; used
        #: by the forced-oversubscription (Figure 5) switch trigger.
        self.mem_wait = False
        #: True between a fault-stall wake and the next op issue; lets the
        #: analytics layer charge the re-issued op's cycles to the
        #: ``replay`` bucket.  Only written when analytics is enabled.
        self.replay_pending = False
        #: Shared :class:`repro.lifecycle.TransitionValidator`; installed
        #: only under ``check_invariants`` so the hot path pays one
        #: ``is None`` test.
        self.validator = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state is WarpState.FINISHED

    def current_op(self) -> WarpOp:
        return self.ops[self.pc]

    # ------------------------------------------------------------------
    def stall_on(self, pages: Iterable[int], now: int, replay_latency: int) -> None:
        """Stall this warp until every page in ``pages`` becomes resident.

        A warp that is *already* stalled may accrue more waiting pages
        (e.g. a replayed access faulting on a different page set while
        earlier faults are still outstanding).  In that case the original
        ``stall_start`` is preserved — the warp has been stalled since the
        first fault, and overwriting it would silently drop the
        already-accrued stall time from ``stalled_cycles``.  Replay
        latencies merge by ``max``: the replays overlap, so the warp owes
        the longest one, not their sum.
        """
        validator = self.validator
        if validator is not None:
            already = self.state is WarpState.STALLED
            validator.check(
                "restall" if already else "stall",
                self.state.value,
                warp=self.warp_id,
                now=now,
            )
        self.waiting_pages.update(pages)
        if self.state is WarpState.STALLED:
            self.resume_latency = max(self.resume_latency, replay_latency)
            return
        self.state = WarpState.STALLED
        self.resume_latency = replay_latency
        self.stall_start = now

    def page_arrived(self, page: int, now: int) -> bool:
        """Notify the warp that ``page`` is resident; True if it can resume."""
        self.waiting_pages.discard(page)
        if self.waiting_pages:
            return False
        if self.state is WarpState.STALLED:
            validator = self.validator
            if validator is not None:
                validator.check("wake", "stalled", warp=self.warp_id, now=now)
            self.stalled_cycles += now - self.stall_start
            self.state = WarpState.READY
            return True
        return False

    def advance(self) -> None:
        """Retire the current op and move to the next."""
        self.pc += 1
        done = self.pc >= len(self.ops)
        validator = self.validator
        if validator is not None:
            validator.check(
                "finish" if done else "retire",
                self.state.value,
                warp=self.warp_id,
                pc=self.pc,
            )
        if done:
            self.state = WarpState.FINISHED
        else:
            self.state = WarpState.READY

    def __repr__(self) -> str:
        return f"Warp(id={self.warp_id}, pc={self.pc}/{len(self.ops)}, {self.state.value})"


class ObjectThreadBlock:
    """A thread block over :class:`Warp` objects: each predicate loops
    over the warps' own state fields."""

    __slots__ = (
        "block_id",
        "warps",
        "state",
        "sm",
        "context_switches",
        "ever_active",
    )

    def __init__(self, block_id: int, warps: Sequence[Warp]) -> None:
        self.block_id = block_id
        self.warps = list(warps)
        for warp in self.warps:
            warp.block = self
        self.state = BlockState.PENDING
        self.sm = None
        self.context_switches = 0
        self.ever_active = False

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return all(warp.finished for warp in self.warps)

    def fully_stalled(self) -> bool:
        """True when no warp can make progress (all stalled or finished).

        This is the TO context-switch trigger: "Once all of the warps in an
        active thread block are stalled due to page faults" (Section 4.1).
        At least one warp must actually be stalled — a finished block is not
        "stalled".
        """
        any_stalled = False
        for warp in self.warps:
            if warp.state in (WarpState.READY, WarpState.RUNNING):
                return False
            if warp.state is WarpState.STALLED:
                any_stalled = True
        return any_stalled

    def fully_mem_stalled(self) -> bool:
        """True when every unfinished warp is waiting on DRAM or faults.

        The Virtual Thread / forced-oversubscription (Figure 5) switch
        trigger: all warps descheduled due to long-latency operations.
        """
        any_waiting = False
        for warp in self.warps:
            if warp.state is WarpState.FINISHED:
                continue
            if warp.state is WarpState.STALLED or warp.mem_wait:
                any_waiting = True
                continue
            return False
        return any_waiting

    def ready_to_run(self) -> bool:
        """True when at least one warp could make progress if activated."""
        return any(
            warp.state in (WarpState.READY, WarpState.SUSPENDED)
            for warp in self.warps
        )

    def suspend_runnable_warps(self) -> list[Warp]:
        """Mark READY warps SUSPENDED (context switch out); return them."""
        suspended = []
        for warp in self.warps:
            if warp.state is WarpState.READY:
                validator = warp.validator
                if validator is not None:
                    validator.check("suspend", "ready", warp=warp.warp_id)
                warp.state = WarpState.SUSPENDED
                suspended.append(warp)
        return suspended

    def resume_suspended_warps(self) -> list[Warp]:
        """Mark SUSPENDED warps READY (context switch in); return them."""
        resumed = []
        for warp in self.warps:
            if warp.state is WarpState.SUSPENDED:
                validator = warp.validator
                if validator is not None:
                    validator.check("resume", "suspended", warp=warp.warp_id)
                warp.state = WarpState.READY
                resumed.append(warp)
        return resumed

    def __repr__(self) -> str:
        done = sum(1 for w in self.warps if w.finished)
        return (
            f"ObjectThreadBlock(id={self.block_id}, warps={done}/{len(self.warps)} done, "
            f"{self.state.value})"
        )


class ObjectModelSimulator(GpuUvmSimulator):
    """:class:`GpuUvmSimulator` over the object warp model."""

    #: The current kernel's warps (the base class reads its warp store).
    _object_warps: Sequence[Warp] = ()

    def _kernel_ops_retired(self) -> int:
        return sum(warp.pc for warp in self._object_warps)

    def _build_blocks(self, kernel) -> list[ObjectThreadBlock]:
        """One :class:`Warp` object per warp of the launch."""
        blocks: list[ObjectThreadBlock] = []
        validator = self._warp_validator
        for block_ops in ops_of(kernel):
            warps = []
            for warp_id, ops in enumerate(block_ops):
                warp = Warp(warp_id, ops)
                warp.exec_event = _ExecuteOpEvent(self, warp)
                warp.complete_event = _WarpCompletedEvent(self, warp)
                warp.validator = validator
                if not ops:
                    warp.state = WarpState.FINISHED
                warps.append(warp)
            if not warps or all(w.finished for w in warps):
                continue  # nothing to execute
            blocks.append(ObjectThreadBlock(len(blocks), warps))
        self._object_warps = [warp for block in blocks for warp in block.warps]
        return blocks

    def _runahead_probe(self, warp: Warp) -> None:
        """Runahead over the warp's :class:`WarpOp` objects: each upcoming
        op's own independent pages."""
        depth = self.config.runahead.depth
        self._runahead_probes += 1
        for op in warp.ops[warp.pc + 1 : warp.pc + 1 + depth]:
            for page in op.independent_pages(self.page_shift):
                if self.page_table.is_resident(page):
                    continue
                if self.runtime.page_has_waiters(page):
                    continue
                self._runahead_faults += 1
                self.runtime.raise_fault(page, None)

    def _scale_compute(self, cycles: int) -> int:
        """Scheduled cycles for ``cycles`` of raw compute under the
        config's time scale (the SoA model pre-scales at kernel build)."""
        scale = self.config.time_scale
        if scale == 1.0:
            return cycles
        return max(1, round(cycles * scale))

    def _schedule_warp(self, warp: Warp, extra_delay: int) -> None:
        """Schedule the warp's current op to issue after its compute time."""
        if warp.finished:
            return
        warp.state = WarpState.RUNNING
        op = warp.current_op()
        self.engine.schedule(
            extra_delay + self._scale_compute(op.compute_cycles), warp.exec_event
        )

    def _execute_op(self, warp: Warp) -> None:
        if warp.finished:
            return
        block = warp.block
        if block.state is not BlockState.ACTIVE:
            # The block was context-switched out while this event was in
            # flight; the warp resumes when the block is reactivated.
            warp.state = WarpState.SUSPENDED
            return
        sm: StreamingMultiprocessor = block.sm
        if sm.throttled:
            sm.park(warp)
            return
        if sm.switch_busy_until > self.engine.now:
            # The register file is busy with a context save/restore; the
            # SM cannot issue until it completes.
            self.engine.schedule_at(sm.switch_busy_until, warp.exec_event)
            return

        warp.mem_wait = False
        op = warp.current_op()
        now = self.engine.now
        pages = op.pages(self.page_shift)

        latency = 0
        missing = []
        for page in pages:
            result = self.mmu.translate(page, sm.sm_id, now)
            latency = max(latency, result.latency)
            if not result.resident:
                missing.append(page)

        an = self._an
        if missing:
            if an is not None:
                # Busy cycles leading up to the faulting access; charged
                # to ``replay`` when this issue is a post-stall re-issue.
                cycles = self._scale_compute(op.compute_cycles)
                if warp.replay_pending:
                    warp.replay_pending = False
                    an.attr.replay[sm.sm_id] += cycles
                else:
                    an.attr.compute[sm.sm_id] += cycles
            warp.stall_on(missing, now, 0)
            for page in missing:
                self._unique_fault_pages.add(page)
                self.runtime.raise_fault(page, warp)
            if self.config.runahead.enabled:
                self._runahead_probe(warp)
            sm.on_warp_stalled(warp)
            return

        for page in pages:
            self.memory.policy.touch(page)
        for page in op.store_pages(self.page_shift):
            self.memory.mark_dirty(page)
        data_latency = 0
        if op.addresses:
            data_latency = self.caches.access_lines(op.lines(), sm.sm_id)
            data_latency += self._access_penalty
        total = latency + data_latency

        # Virtual Thread descheduling trigger: any access that leaves the
        # core (L2 or DRAM) counts as a long-latency operation.
        if total >= self.config.gpu.l2_hit_cycles:
            warp.mem_wait = True
            sm.on_warp_mem_wait(warp)

        if an is not None:
            # Busy cycles of the retiring op: its issue compute plus the
            # translation + data latency it just paid.
            cycles = self._scale_compute(op.compute_cycles) + total
            if warp.replay_pending:
                warp.replay_pending = False
                an.attr.replay[sm.sm_id] += cycles
            else:
                an.attr.compute[sm.sm_id] += cycles
        warp.advance()
        if warp.finished:
            self.engine.schedule(total, warp.complete_event)
        else:
            warp.state = WarpState.RUNNING
            next_delay = total + self._scale_compute(warp.current_op().compute_cycles)
            self.engine.schedule(next_delay, warp.exec_event)

    def _wake_warps(self, page: int, now: int, waiters) -> None:
        """Page-arrival fan-out over :class:`Warp` objects, waking each
        waiter (via :meth:`Warp.page_arrived`) before notifying the next."""
        obs = self.obs
        an = self._an
        schedule_warp = self._schedule_warp
        for warp in waiters:
            if not warp.page_arrived(page, now):
                continue
            block = warp.block
            if an is not None:
                # Decompose the just-finished stall interval in *every*
                # wake branch (active, suspended, inactive) so the bucket
                # totals tile stalled_cycles exactly.
                sm0 = block.sm
                an.record_stall(
                    sm0.sm_id if sm0 is not None else an.attr.num_sms,
                    warp.stall_start,
                    now,
                )
                warp.replay_pending = True
            if block.state is BlockState.ACTIVE:
                sm: StreamingMultiprocessor = block.sm
                if sm.throttled:
                    sm.park(warp)
                    continue
                if obs is not None:
                    stalled = now - warp.stall_start
                    obs.tracer.complete(
                        f"sm{sm.sm_id}",
                        "warp stall",
                        warp.stall_start,
                        now,
                        warp=warp.warp_id,
                    )
                    obs.metrics.counter("sm.stall_cycles", sm=sm.sm_id).inc(
                        stalled
                    )
                    obs.metrics.histogram("sm.warp_stall_cycles", 1000).record(
                        stalled
                    )
                schedule_warp(warp, 0)
                continue
            warp.state = WarpState.SUSPENDED
            if block.state is BlockState.INACTIVE and block.sm is not None:
                block.sm.on_block_ready(block)
