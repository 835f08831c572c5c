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
    """A thread block over one block's contiguous warp-index range of a
    WarpStore.

    Warp state changes only through the store's transition methods,
    which keep this block's count of warps in each state (``counts``,
    shared with the store); ``finished``, ``fully_stalled`` and
    ``ready_to_run`` — what the SM scheduler asks on every stall, wake
    and switch — read those counts in O(1).  ``fully_mem_stalled`` scans
    the block's ``[lo, hi)`` slice: ``mem_wait`` is rewritten on every
    op, and only the forced-oversubscription trigger reads it.
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
        "counts",
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
        store = self.store = warps[0].store
        lo = self.lo = warps[0].index
        hi = self.hi = warps[-1].index + 1
        counts = self.counts = store.block_counts[lo]
        if (
            [w.index for w in warps] != list(range(lo, hi))
            or store.block_counts[hi - 1] is not counts
            or sum(counts) != hi - lo
        ):
            raise ValueError("ThreadBlock requires one block's contiguous warps")

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.counts[FINISHED] == len(self.warps)

    def fully_stalled(self) -> bool:
        """True when no warp can make progress (all stalled or finished).

        This is the TO context-switch trigger: "Once all of the warps in an
        active thread block are stalled due to page faults" (Section 4.1).
        At least one warp must actually be stalled — a finished block is not
        "stalled".
        """
        counts = self.counts
        return counts[STALLED] > 0 and not (counts[READY] or counts[RUNNING])

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
        counts = self.counts
        return counts[READY] > 0 or counts[SUSPENDED] > 0

    def suspend_runnable_warps(self) -> list[SoAWarp]:
        """Mark READY warps SUSPENDED (context switch out); return them."""
        if not self.counts[READY]:
            return []
        return self.store.suspend_ready(self.lo, self.hi)

    def resume_suspended_warps(self) -> list[SoAWarp]:
        """Mark SUSPENDED warps READY (context switch in); return them."""
        if not self.counts[SUSPENDED]:
            return []
        return self.store.resume_suspended(self.lo, self.hi)

    def __repr__(self) -> str:
        return (
            f"ThreadBlock(id={self.block_id}, "
            f"warps={self.counts[FINISHED]}/{len(self.warps)} done, "
            f"{self.state.value})"
        )
