"""Struct-of-arrays warp state.

At sweep scale the warp/fault hot path dominates end-to-end runtime (see
``docs/performance.md`` and ``scripts/tprof.py``), so warp scheduler
state is not kept in one Python object per warp.  It lives in
struct-of-arrays form, one parallel flat array per field across *every*
warp of a kernel launch:

* ``pc``, ``state``, ``stall_start``, ``stalled_cycles``, ``mem_wait``
  — parallel arrays indexed by a global warp index;
* per-op derived data (page tuples, line tuples, store-page tuples,
  time-scaled compute cycles) derived once per kernel from the trace's
  flat columns — one sort per column orders every op's values, repeats
  dropped and equal values sharing one int object — and cached on the
  trace (:func:`kernel_derived`), so no NumPy scalar enters the issue
  loop, replays never re-derive them, and checkpoints refer to these
  read-only columns instead of carrying them; runahead's probeable
  pages are one more such column, derived only when runahead first
  asks (:func:`kernel_independent`);
* blocks own contiguous index ranges, and each block keeps a count of
  its warps in each state, so the block predicates the scheduler asks on
  every stall and switch read counts instead of scanning
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

Only the store writes ``state``, with one method per event of the
declared warp machine (:data:`~repro.lifecycle.WARP_LIFECYCLE`); each
moves the warp between its block's state counts.  Under
``check_invariants`` a :class:`CheckedWarpStore` validates every move
first.  :class:`SoAWarp` handles give a read-only per-warp view.  The
golden corpus (``tests/test_equivalence_golden.py``) locks the result
bits: same cells, same metrics, same chaos counters.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.gpu.config import LINE_SIZE
from repro.gpu.warp import WarpState
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

#: Code → ``WarpState`` and code → declared state name.
_CODE_TO_STATE = tuple(WarpState(name) for name in WARP_LIFECYCLE.states)
_CODE_TO_NAME = WARP_LIFECYCLE.states


def _shared_ints(values: np.ndarray) -> list[int]:
    """``values`` as a list with one int object per distinct value, so the
    issue loop's lookups touch few objects (faster than ``tolist()``)."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array(distinct.tolist(), dtype=object)[index].tolist()


def _sorted_unique(values: np.ndarray, ends: np.ndarray) -> list[tuple[int, ...]]:
    """Per op, its sorted distinct values (ops are consecutive runs of
    ``values`` ending at ``ends``), equal values sharing one int object.

    One sort of the key ``op * span + (value - lo)`` orders every op's
    values at once; dropping repeated keys leaves each op's distinct
    values, and op ``i``'s run starts at the first key ``>= i * span``.
    """
    ops = ends.size
    if not values.size:
        return [()] * ops
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if ops * span > np.iinfo(np.int64).max:
        raise OverflowError(f"{ops} ops over a value span of {span} overflow int64 keys")
    op = np.repeat(np.arange(ops, dtype=np.int64), np.diff(ends, prepend=0))
    keys = np.sort(op * span + (values - lo))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    bounds = np.searchsorted(keys, np.arange(ops + 1) * span).tolist()
    flat = tuple(_shared_ints(keys % span + lo))
    return [flat[i:j] for i, j in zip(bounds, bounds[1:])]


def _masked_pages(kernel, mask, page_shift: int) -> list[tuple[int, ...]]:
    """Per op, the sorted unique pages of its addresses where ``mask``."""
    kept = np.concatenate(([0], np.cumsum(mask)))
    return _sorted_unique(kernel.addresses[mask] >> page_shift, kept[kernel.op_end])


def _per_warp(kernel, *columns) -> list[tuple]:
    """Split per-op ``columns`` into per-warp tuples, in warp order."""
    bounds = kernel.warp_start.tolist()
    spans = list(zip(bounds, bounds[1:]))
    return list(
        zip(*[[column[lo:hi] for lo, hi in spans] for column in map(tuple, columns)])
    )


def _cached(kernel, key, derive):
    cache = kernel.__dict__.setdefault("_derived_cache", {})
    if key not in cache:
        cache[key] = derive()
    return cache[key]


def kernel_derived(kernel, page_shift: int, time_scale: float) -> list[tuple]:
    """Per-warp ``(op_pages, op_lines, op_store_pages, op_compute)`` for
    ``kernel``, in warp-index order, cached on the trace.

    Each is a tuple over the warp's ops: sorted unique pages, sorted
    unique 128-byte lines, sorted unique pages written, and scheduled
    compute cycles (raw cycles become ``max(1, round(cycles *
    time_scale))``, applied once here instead of per executed op).  The
    cache key covers everything the derivation reads: the page shift and
    the time scale.  Entries are immutable tuples shared across
    simulator instances; the cache lives on the kernel object, so it
    dies with the trace, and :class:`~repro.workloads.trace.KernelTrace`
    leaves it out of its pickled state.
    """

    def derive() -> list[tuple]:
        compute = kernel.compute
        if time_scale != 1.0:
            # np.rint rounds half to even, like round().
            compute = np.maximum(1, np.rint(compute * time_scale)).astype(np.int64)
        return _per_warp(
            kernel,
            _sorted_unique(kernel.addresses >> page_shift, kernel.op_end),
            _sorted_unique(kernel.addresses // LINE_SIZE, kernel.op_end),
            _masked_pages(kernel, kernel.store, page_shift),
            compute.tolist(),
        )

    return _cached(kernel, (page_shift, time_scale), derive)


def kernel_independent(kernel, page_shift: int) -> list[tuple]:
    """Per-warp tuples of each op's *independent* pages — those of
    addresses computable without loaded values, the only ones a runahead
    engine can probe — cached on the trace like :func:`kernel_derived`.
    Only runahead reads them, so they are derived on first use."""
    return _cached(
        kernel,
        ("independent", page_shift),
        lambda: [
            warp[0]
            for warp in _per_warp(
                kernel, _masked_pages(kernel, ~kernel.dependent, page_shift)
            )
        ],
    )


#: Read-only per-warp columns derived from the kernel trace; a store
#: pickles them by reference to its ``source`` (see ``__getstate__``).
_TRACE_COLUMNS = ("op_pages", "op_lines", "op_store_pages", "op_compute")


class WarpStore:
    """Struct-of-arrays state for every warp of one kernel launch.

    ``block_counts[i]`` is the list, shared by the warps of warp ``i``'s
    block, of how many of them are in each state (by state code).
    """

    __slots__ = (
        "pc",
        "state",
        "block_counts",
        "stall_start",
        "stalled_cycles",
        "mem_wait",
        "replay_pending",
        "op_pages",
        "op_lines",
        "op_store_pages",
        "op_compute",
        "waiting_pages",
        "warps",
        "source",
    )

    def __init__(
        self, workload, kernel_index: int, page_shift: int, time_scale: float
    ) -> None:
        """State for every warp of ``workload``'s kernel ``kernel_index``
        (warp indices in block order), over its trace columns.  A warp
        with no ops starts finished."""
        self._load_trace(workload, kernel_index, page_shift, time_scale)
        kernel = workload.kernels[kernel_index]
        n = kernel.num_warps
        self.pc = [0] * n
        self.state = [READY if ops else FINISHED for ops in self.op_compute]
        self.block_counts: list[list[int]] = []
        bounds = kernel.block_start.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            block = self.state[lo:hi]
            counts = [block.count(code) for code in range(len(_CODE_TO_NAME))]
            self.block_counts += [counts] * (hi - lo)
        self.stall_start = [0] * n
        self.stalled_cycles = [0] * n
        self.mem_wait = [False] * n
        # Analytics-only flag: True between a fault-stall wake and the
        # next op issue, so the re-issued op's cycles are charged to the
        # ``replay`` bucket.  Stays False everywhere when analytics is off.
        self.replay_pending = [False] * n
        #: Outstanding faulted pages per warp.
        self.waiting_pages: list[set[int]] = [set() for _ in range(n)]
        #: Handle objects, index-aligned.
        self.warps: list[SoAWarp] = []

    def _load_trace(
        self, workload, kernel_index: int, page_shift: int, time_scale: float
    ) -> None:
        """Fill the trace columns — per warp, a tuple over its ops
        (:func:`kernel_derived`) — and remember their ``source``, so a
        pickled store refers to the trace instead of carrying it."""
        self.source = (workload, kernel_index, page_shift, time_scale)
        kernel = workload.kernels[kernel_index]
        derived = kernel_derived(kernel, page_shift, time_scale)
        self.op_pages = [d[0] for d in derived]
        self.op_lines = [d[1] for d in derived]
        self.op_store_pages = [d[2] for d in derived]
        self.op_compute = [d[3] for d in derived]

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name not in _TRACE_COLUMNS
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._load_trace(*self.source)

    def op_independent(self, index: int) -> tuple[tuple[int, ...], ...]:
        """Warp ``index``'s per-op runahead-probeable pages
        (:func:`kernel_independent`)."""
        workload, kernel_index, page_shift, _ = self.source
        return kernel_independent(workload.kernels[kernel_index], page_shift)[index]

    def add_handle(self, index: int, warp_id: int) -> "SoAWarp":
        """Return the handle for warp ``index``."""
        warp = SoAWarp(self, index, warp_id)
        self.warps.append(warp)
        return warp

    # -- transitions: the only writers of ``state`` ---------------------
    def _move(self, event: str, i: int, target: int) -> None:
        """Make ``event``: put warp ``i`` in state ``target`` and move its
        block count (``event`` names the move for validation)."""
        state = self.state
        counts = self.block_counts[i]
        counts[state[i]] -= 1
        counts[target] += 1
        state[i] = target

    def issue(self, i: int) -> bool:
        """``issue``: warp ``i``'s current op is scheduled (ready →
        running).  A warp parked while running (ETC throttling) stays
        running; a finished warp is left alone and gives False."""
        state = self.state
        code = state[i]
        if code == FINISHED:
            return False
        counts = self.block_counts[i]
        counts[code] -= 1
        counts[RUNNING] += 1
        state[i] = RUNNING
        return True

    def stall(self, i: int, pages: Iterable[int], now: int) -> None:
        """``stall``: warp ``i`` waits until every page in ``pages`` is
        resident (running → stalled).

        A warp that is *already* stalled may accrue more waiting pages
        (``restall``: a replayed access faulting on a different page set
        while earlier faults are still outstanding).  Then the original
        ``stall_start`` is kept — the warp has been stalled since the
        first fault, and overwriting it would silently drop the
        already-accrued stall time from ``stalled_cycles``.
        """
        self.waiting_pages[i].update(pages)
        state = self.state
        code = state[i]
        if code == STALLED:
            return
        counts = self.block_counts[i]
        counts[code] -= 1
        counts[STALLED] += 1
        state[i] = STALLED
        self.stall_start[i] = now

    def page_arrived(self, i: int, page: int, now: int) -> bool:
        """``page`` is resident: drop it from warp ``i``'s wait, and once
        nothing is left, ``wake`` the warp (stalled → ready, its stall
        time accrued) and return True.  A warp that is not stalled (a
        duplicate waiter already woken) stays as it is."""
        waiting = self.waiting_pages[i]
        waiting.discard(page)
        if waiting or self.state[i] != STALLED:
            return False
        self.stalled_cycles[i] += now - self.stall_start[i]
        counts = self.block_counts[i]
        counts[STALLED] -= 1
        counts[READY] += 1
        self.state[i] = READY
        return True

    def suspend(self, i: int) -> None:
        """Ready warp ``i``'s block is not active (ready → suspended)."""
        self._move("suspend", i, SUSPENDED)

    def preempt(self, i: int) -> None:
        """Warp ``i``'s op event fired in a switched-out block."""
        self._move("preempt", i, SUSPENDED)

    def resume(self, i: int) -> None:
        """Warp ``i``'s block is switched in (suspended → ready)."""
        self._move("resume", i, READY)

    def finish(self, i: int) -> None:
        """Warp ``i`` retired its last op (running → finished)."""
        self._move("finish", i, FINISHED)

    def suspend_ready(self, lo: int, hi: int) -> list["SoAWarp"]:
        """``suspend`` every ready warp in ``[lo, hi)``; their handles."""
        state = self.state
        picked = [self.warps[i] for i in range(lo, hi) if state[i] == READY]
        for warp in picked:
            self.suspend(warp.index)
        return picked

    def resume_suspended(self, lo: int, hi: int) -> list["SoAWarp"]:
        """``resume`` every suspended warp in ``[lo, hi)``; their handles."""
        state = self.state
        picked = [self.warps[i] for i in range(lo, hi) if state[i] == SUSPENDED]
        for warp in picked:
            self.resume(warp.index)
        return picked


class CheckedWarpStore(WarpStore):
    """A :class:`WarpStore` (built under ``check_invariants``) whose
    ``validator`` checks and counts each transition before it is made:
    an undeclared move raises :class:`~repro.errors.IllegalTransition`
    with the state unchanged."""

    __slots__ = ("validator",)

    def __init__(self, validator, *args) -> None:
        super().__init__(*args)
        self.validator = validator
        for i, code in enumerate(self.state):
            if code == FINISHED:  # no ops: retired at build time
                validator.check("finish", "ready", warp=i)

    def _check(self, event: str, i: int) -> None:
        self.validator.check(event, _CODE_TO_NAME[self.state[i]], warp=i)

    def issue(self, i: int) -> bool:
        code = self.state[i]
        # Scheduling a finished warp is a no-op, and a warp parked while
        # running (ETC throttling) re-issues in place: neither moves.
        if code != FINISHED and code != RUNNING:
            self._check("issue", i)
        return super().issue(i)

    def stall(self, i: int, pages: Iterable[int], now: int) -> None:
        self._check("restall" if self.state[i] == STALLED else "stall", i)
        super().stall(i, pages, now)

    def page_arrived(self, i: int, page: int, now: int) -> bool:
        woke = super().page_arrived(i, page, now)
        if woke:
            self.validator.check("wake", "stalled", warp=i, now=now)
        return woke

    def _move(self, event: str, i: int, target: int) -> None:
        self._check(event, i)
        super()._move(event, i, target)


class SoAWarp:
    """Lightweight handle: a warp index into a :class:`WarpStore`, and a
    read-only per-warp view (state changes go through the store)."""

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

    @property
    def pc(self) -> int:
        return self.store.pc[self.index]

    @property
    def finished(self) -> bool:
        return self.store.state[self.index] == FINISHED

    @property
    def stalled_cycles(self) -> int:
        return self.store.stalled_cycles[self.index]

    @property
    def mem_wait(self) -> bool:
        return self.store.mem_wait[self.index]

    @mem_wait.setter
    def mem_wait(self, value: bool) -> None:
        self.store.mem_wait[self.index] = value

    def __repr__(self) -> str:
        return (
            f"SoAWarp(id={self.warp_id}, pc={self.pc}/"
            f"{len(self.store.op_compute[self.index])}, {self.state.value})"
        )


__all__ = [
    "WarpStore",
    "CheckedWarpStore",
    "SoAWarp",
    "kernel_derived",
    "kernel_independent",
    "READY",
    "RUNNING",
    "STALLED",
    "SUSPENDED",
    "FINISHED",
]
