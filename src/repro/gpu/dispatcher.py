"""Grid dispatcher.

When a kernel launches, the runtime dispatches blocks to SMs round-robin
up to each SM's active limit (Section 2.1).  Under Thread Oversubscription
the dispatcher additionally hands each SM ``extra_blocks_allowed`` inactive
blocks (Figure 6 step 1), and tops SMs back up as blocks retire or as the
TO controller grows the allowance.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import ThreadBlock


def _no_extra_blocks() -> int:
    """Default TO allowance (module-level so dispatchers pickle)."""
    return 0


def _noop() -> None:
    """Default kernel-done hook (module-level so dispatchers pickle)."""


class Dispatcher:
    """Round-robin block dispatcher for one kernel launch."""

    def __init__(
        self,
        sms: Sequence[StreamingMultiprocessor],
        blocks: Sequence[ThreadBlock],
        extra_blocks_allowed: Callable[[], int] = _no_extra_blocks,
        on_kernel_done: Callable[[], None] = _noop,
    ) -> None:
        self.sms = list(sms)
        self.pending: deque[ThreadBlock] = deque(blocks)
        self.extra_blocks_allowed = extra_blocks_allowed
        self.on_kernel_done = on_kernel_done
        self.unfinished = len(blocks)

    # ------------------------------------------------------------------
    def launch(self) -> None:
        """Initial fill: active slots first, then the TO extras."""
        for sm in self.sms:
            while self.pending and sm.free_active_slots > 0:
                self._dispatch(sm, active=True)
        self.top_up()

    def top_up(self) -> None:
        """Give each SM inactive blocks up to the current TO allowance."""
        allowed = self.extra_blocks_allowed()
        for sm in self.sms:
            while (
                self.pending
                and len(sm.inactive_blocks) < allowed
            ):
                self._dispatch(sm, active=False)

    def _dispatch(self, sm: StreamingMultiprocessor, active: bool) -> None:
        block = self.pending.popleft()
        sm.dispatch(block, active)

    # ------------------------------------------------------------------
    def block_finished(self, block: ThreadBlock) -> None:
        """Retire a finished block and refill its SM."""
        sm = block.sm
        sm.retire_block(block)
        self.unfinished -= 1
        self.refill(sm)
        if self.unfinished == 0:
            self.on_kernel_done()

    def refill(self, sm: StreamingMultiprocessor) -> None:
        """Fill freed active slots: promote inactive blocks, then pending."""
        while sm.free_active_slots > 0:
            promoted = False
            for block in list(sm.inactive_blocks):
                if block.ready_to_run():
                    sm.on_block_ready(block)  # fills the empty slot
                    promoted = True
                    break
            if promoted:
                continue
            if self.pending:
                self._dispatch(sm, active=True)
            else:
                break
        self.top_up()
