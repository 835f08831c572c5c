"""Thread-block model.

A thread block (CTA) owns a group of warps that are dispatched to one SM
together and retire together.  Under Thread Oversubscription a block can be
*inactive* — dispatched to the SM but not occupying scheduler resources —
and is context-switched in when an active block fully stalls (Section 4.1,
Figure 6).
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.gpu.warp_soa import (
    FINISHED,
    READY,
    RUNNING,
    STALLED,
    SUSPENDED,
    SoAWarp,
)


class BlockState(enum.Enum):
    PENDING = "pending"        # not yet dispatched to any SM
    ACTIVE = "active"          # occupying an active slot, warps runnable
    INACTIVE = "inactive"      # dispatched but context-switched out
    SWITCHING = "switching"    # context save/restore in progress
    FINISHED = "finished"


class ThreadBlock:
    """A thread block over a contiguous warp-index range of a WarpStore.

    Every predicate the SM scheduler consults per stall/wake/switch scans
    the block's warps; each is an early-exit loop over the block's
    ``[lo, hi)`` slice of the store arrays — one C-level slice copy plus
    at most hi−lo integer compares, no per-warp attribute loads.
    """

    __slots__ = (
        "block_id",
        "warps",
        "state",
        "sm",
        "context_switches",
        "ever_active",
        "store",
        "lo",
        "hi",
    )

    def __init__(self, block_id: int, warps: Sequence[SoAWarp]) -> None:
        self.block_id = block_id
        self.warps = list(warps)
        for warp in self.warps:
            warp.block = self
        self.state = BlockState.PENDING
        self.sm = None
        self.context_switches = 0
        self.ever_active = False
        self.store = warps[0].store
        self.lo = warps[0].index
        self.hi = warps[-1].index + 1
        if [w.index for w in warps] != list(range(self.lo, self.hi)):
            raise ValueError("ThreadBlock requires contiguous warp indices")

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        for s in self.store.state[self.lo : self.hi]:
            if s != FINISHED:
                return False
        return True

    @property
    def num_threads(self) -> int:
        return len(self.warps) * 32

    def fully_stalled(self) -> bool:
        """True when no warp can make progress (all stalled or finished).

        This is the TO context-switch trigger: "Once all of the warps in an
        active thread block are stalled due to page faults" (Section 4.1).
        At least one warp must actually be stalled — a finished block is not
        "stalled".
        """
        saw_stalled = False
        for s in self.store.state[self.lo : self.hi]:
            if s == STALLED:
                saw_stalled = True
            elif s == READY or s == RUNNING:
                return False
        return saw_stalled

    def fully_mem_stalled(self) -> bool:
        """True when every unfinished warp is waiting on DRAM or faults.

        The Virtual Thread / forced-oversubscription (Figure 5) switch
        trigger: all warps descheduled due to long-latency operations.
        """
        store = self.store
        state = store.state
        mem_wait = store.mem_wait
        unfinished = False
        for i in range(self.lo, self.hi):
            s = state[i]
            if s == FINISHED:
                continue
            if s != STALLED and not mem_wait[i]:
                return False
            unfinished = True
        return unfinished

    def ready_to_run(self) -> bool:
        """True when at least one warp could make progress if activated."""
        for s in self.store.state[self.lo : self.hi]:
            if s == READY or s == SUSPENDED:
                return True
        return False

    def suspend_runnable_warps(self) -> list[SoAWarp]:
        """Mark READY warps SUSPENDED (context switch out); return them."""
        store = self.store
        state = store.state
        warps = store.warps
        validator = store.validator
        picked: list[SoAWarp] = []
        for i in range(self.lo, self.hi):
            if state[i] == READY:
                if validator is not None:
                    validator.check("suspend", "ready", warp=warps[i].warp_id)
                state[i] = SUSPENDED
                picked.append(warps[i])
        return picked

    def resume_suspended_warps(self) -> list[SoAWarp]:
        """Mark SUSPENDED warps READY (context switch in); return them."""
        store = self.store
        state = store.state
        warps = store.warps
        validator = store.validator
        picked: list[SoAWarp] = []
        for i in range(self.lo, self.hi):
            if state[i] == SUSPENDED:
                if validator is not None:
                    validator.check("resume", "suspended", warp=warps[i].warp_id)
                state[i] = READY
                picked.append(warps[i])
        return picked

    def __repr__(self) -> str:
        done = sum(1 for w in self.warps if w.finished)
        return (
            f"ThreadBlock(id={self.block_id}, warps={done}/{len(self.warps)} done, "
            f"{self.state.value})"
        )
