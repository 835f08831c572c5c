"""Struct-of-arrays warp state.

At sweep scale the warp/fault hot path dominates end-to-end runtime (see
``docs/performance.md`` and ``scripts/tprof.py``), so warp scheduler
state is not kept in one Python object per warp.  It lives in
struct-of-arrays form, one parallel flat array per field across *every*
warp of a kernel launch:

* ``pc``, ``state``, ``waiting_count``, ``stall_start``,
  ``stalled_cycles``, ``resume_latency``, ``mem_wait`` — parallel
  arrays indexed by a global warp index;
* per-op derived data (page tuples, line tuples, store-page tuples,
  time-scaled compute cycles) precomputed once per kernel launch — and
  shared across launches of the same trace via the simulator's derived
  cache — so replays never re-derive them;
* blocks own contiguous index ranges, so every block-level predicate is
  a short early-exit scan over the block's ``[lo, hi)`` slice
  (:class:`~repro.gpu.thread_block.ThreadBlock`).

The parallel arrays are compact Python ``list``s, not NumPy ndarrays —
a deliberate, profiler-driven choice.  The event core drives warps one
event at a time, so the hot accesses are *scalar*: a NumPy scalar read
costs ~3× a list index, a scalar read-modify-write ~10×, and vector
predicates over an 8–32-warp block slice lose to an early-exit loop
(small-array dispatch overhead exceeds the whole scan).  NumPy earns its
keep in this codebase where thousands of elements move per call (the
prefetcher's region masks); warp state is the opposite regime.  The
layout — index-aligned flat arrays, precomputed derivatives, contiguous
block slices — is what the speedup comes from, not the element type.

:class:`SoAWarp` handles give the SM/dispatcher/runtime code a
per-warp view (``WarpState`` enums, ``stall_on``); ``page_arrived`` and
``advance`` are the scalar specification of the wake and retire steps
that the simulator's issue and wake loops inline over the arrays.  The
recorded golden corpus (``tests/test_equivalence_golden.py``) locks the
result bits: same cells, same metrics, same chaos counters.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gpu.warp import WarpOp, WarpState
from repro.lifecycle import WARP_LIFECYCLE

# Integer encoding of WarpState for the ``state`` array: the index of
# each state in the declared machine, so the spec is the single source
# of truth for both encodings.  Values are load-bearing only through the
# mapping tables below.
_CODE_OF = {name: code for code, name in enumerate(WARP_LIFECYCLE.states)}
READY = _CODE_OF["ready"]
RUNNING = _CODE_OF["running"]
STALLED = _CODE_OF["stalled"]
SUSPENDED = _CODE_OF["suspended"]
FINISHED = _CODE_OF["finished"]

_STATE_TO_CODE = {state: _CODE_OF[state.value] for state in WarpState}
_CODE_TO_STATE = {code: state for state, code in _STATE_TO_CODE.items()}
#: Code → declared state name (index-aligned with the spec's states).
_CODE_TO_NAME = WARP_LIFECYCLE.states


def derive_ops(
    ops: Sequence[WarpOp], page_shift: int, compute_scale
) -> tuple:
    """Precompute one warp's per-op derived data.

    Returns ``(op_pages, op_lines, op_store_pages, op_compute)`` —
    tuples-of-tuples index-aligned with ``ops``.  ``compute_scale`` maps
    raw compute cycles to scheduled cycles (the simulator's time-scale
    hook), applied once here instead of per executed op.  The result is
    immutable and safe to share across simulator instances (the
    simulator caches it per kernel trace).
    """
    return (
        tuple(op.pages(page_shift) for op in ops),
        tuple(op.lines() for op in ops),
        tuple(op.store_pages(page_shift) for op in ops),
        tuple(compute_scale(op.compute_cycles) for op in ops),
    )


class WarpStore:
    """Struct-of-arrays state for every warp of one kernel launch."""

    __slots__ = (
        "n",
        "pc",
        "state",
        "waiting_count",
        "stall_start",
        "stalled_cycles",
        "resume_latency",
        "mem_wait",
        "replay_pending",
        "n_ops",
        "op_pages",
        "op_lines",
        "op_store_pages",
        "op_compute",
        "waiting_pages",
        "warps",
        "ops",
        "validator",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.pc = [0] * n
        self.state = [READY] * n
        self.waiting_count = [0] * n
        self.stall_start = [0] * n
        self.stalled_cycles = [0] * n
        self.resume_latency = [0] * n
        self.mem_wait = [False] * n
        # Analytics-only flag: True between a fault-stall wake and the
        # next op issue, so the re-issued op's cycles are charged to the
        # ``replay`` bucket.  Stays False everywhere when analytics is off.
        self.replay_pending = [False] * n
        self.n_ops = [0] * n
        # Ragged per-warp data, indexed by the same warp index: tuples
        # per op, precomputed once at launch (or fetched from the
        # simulator's per-kernel derived cache).
        self.op_pages: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_lines: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_store_pages: list[tuple[tuple[int, ...], ...]] = [()] * n
        self.op_compute: list[tuple[int, ...]] = [()] * n
        #: Outstanding faulted pages per warp (mirrored by waiting_count).
        self.waiting_pages: list[set[int]] = [set() for _ in range(n)]
        #: Handle objects, index-aligned.
        self.warps: list[SoAWarp] = []
        #: Original WarpOp traces (runahead probing reads them).
        self.ops: list[Sequence[WarpOp]] = [()] * n
        #: Shared :class:`repro.lifecycle.TransitionValidator`; installed
        #: only under ``check_invariants`` (one ``is None`` test on the
        #: handle paths; the inlined array loops stay untouched and are
        #: covered transitively by the golden corpus).
        self.validator = None

    def add_warp(
        self,
        index: int,
        warp_id: int,
        ops: Sequence[WarpOp],
        page_shift: int,
        compute_scale,
    ) -> "SoAWarp":
        """Install one warp's trace at ``index`` and return its handle,
        deriving the per-op data here (see :func:`derive_ops`)."""
        return self.add_warp_derived(
            index, warp_id, ops, derive_ops(ops, page_shift, compute_scale)
        )

    def add_warp_derived(
        self,
        index: int,
        warp_id: int,
        ops: Sequence[WarpOp],
        derived: tuple,
    ) -> "SoAWarp":
        """Install one warp's trace with precomputed derived data."""
        self.ops[index] = ops
        self.n_ops[index] = len(ops)
        (
            self.op_pages[index],
            self.op_lines[index],
            self.op_store_pages[index],
            self.op_compute[index],
        ) = derived
        if not ops:
            self.state[index] = FINISHED
        warp = SoAWarp(self, index, warp_id)
        self.warps.append(warp)
        return warp


class SoAWarp:
    """Lightweight handle: a warp index into a :class:`WarpStore`.

    Exposes a per-warp interface for the SM/block/dispatcher code; hot
    paths index the store arrays directly.
    """

    __slots__ = ("store", "index", "warp_id", "block", "exec_event", "complete_event")

    def __init__(self, store: WarpStore, index: int, warp_id: int) -> None:
        self.store = store
        self.index = index
        self.warp_id = warp_id
        self.block = None
        self.exec_event = None
        self.complete_event = None

    # -- per-warp view -------------------------------------------------
    @property
    def state(self) -> WarpState:
        return _CODE_TO_STATE[self.store.state[self.index]]

    @state.setter
    def state(self, value: WarpState) -> None:
        self.store.state[self.index] = _STATE_TO_CODE[value]

    @property
    def pc(self) -> int:
        return self.store.pc[self.index]

    @property
    def ops(self) -> Sequence[WarpOp]:
        return self.store.ops[self.index]

    @property
    def finished(self) -> bool:
        return self.store.state[self.index] == FINISHED

    @property
    def remaining_ops(self) -> int:
        return self.store.n_ops[self.index] - self.store.pc[self.index]

    def current_op(self) -> WarpOp:
        return self.store.ops[self.index][self.store.pc[self.index]]

    @property
    def waiting_pages(self) -> set[int]:
        return self.store.waiting_pages[self.index]

    @property
    def stalled_cycles(self) -> int:
        return self.store.stalled_cycles[self.index]

    @property
    def stall_start(self) -> int:
        return self.store.stall_start[self.index]

    @property
    def resume_latency(self) -> int:
        return self.store.resume_latency[self.index]

    @property
    def mem_wait(self) -> bool:
        return self.store.mem_wait[self.index]

    @mem_wait.setter
    def mem_wait(self, value: bool) -> None:
        self.store.mem_wait[self.index] = value

    @property
    def replay_pending(self) -> bool:
        return self.store.replay_pending[self.index]

    @replay_pending.setter
    def replay_pending(self, value: bool) -> None:
        self.store.replay_pending[self.index] = value

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
        store = self.store
        i = self.index
        validator = store.validator
        if validator is not None:
            code = store.state[i]
            validator.check(
                "restall" if code == STALLED else "stall",
                _CODE_TO_NAME[code],
                warp=self.warp_id,
                now=now,
            )
        waiting = store.waiting_pages[i]
        waiting.update(pages)
        store.waiting_count[i] = len(waiting)
        if store.state[i] == STALLED:
            if replay_latency > store.resume_latency[i]:
                store.resume_latency[i] = replay_latency
            return
        store.state[i] = STALLED
        store.resume_latency[i] = replay_latency
        store.stall_start[i] = now

    def page_arrived(self, page: int, now: int) -> bool:
        """Notify the warp that ``page`` is resident; True if it can resume."""
        store = self.store
        i = self.index
        waiting = store.waiting_pages[i]
        waiting.discard(page)
        count = len(waiting)
        store.waiting_count[i] = count
        if count:
            return False
        if store.state[i] == STALLED:
            validator = store.validator
            if validator is not None:
                validator.check("wake", "stalled", warp=self.warp_id, now=now)
            store.stalled_cycles[i] += now - store.stall_start[i]
            store.state[i] = READY
            return True
        return False

    def advance(self) -> None:
        """Retire the current op and move to the next."""
        store = self.store
        i = self.index
        pc = store.pc[i] + 1
        done = pc >= store.n_ops[i]
        validator = store.validator
        if validator is not None:
            validator.check(
                "finish" if done else "retire",
                _CODE_TO_NAME[store.state[i]],
                warp=self.warp_id,
                pc=pc,
            )
        store.pc[i] = pc
        store.state[i] = FINISHED if done else READY

    def __repr__(self) -> str:
        return (
            f"SoAWarp(id={self.warp_id}, pc={self.pc}/"
            f"{self.store.n_ops[self.index]}, {self.state.value})"
        )


__all__ = [
    "WarpStore",
    "SoAWarp",
    "derive_ops",
    "READY",
    "RUNNING",
    "STALLED",
    "SUSPENDED",
    "FINISHED",
]
