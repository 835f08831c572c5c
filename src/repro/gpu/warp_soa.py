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
  time-scaled compute cycles) derived once per kernel from the trace's
  flat columns — one sort per column orders every op's values, repeats
  dropped and equal values sharing one int object — and cached on the
  trace (:func:`kernel_derived`), so no NumPy scalar enters the issue
  loop, replays never re-derive them, and checkpoints refer to these
  read-only columns instead of carrying them; runahead's probeable
  pages are one more such column, derived only when runahead first
  asks (:func:`kernel_independent`);
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

_STATE_TO_CODE = {state: _CODE_OF[state.value] for state in WarpState}
_CODE_TO_STATE = {code: state for state, code in _STATE_TO_CODE.items()}
#: Code → declared state name (index-aligned with the spec's states).
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
        "validator",
        "source",
    )

    def __init__(
        self, workload, kernel_index: int, page_shift: int, time_scale: float
    ) -> None:
        """State for every warp of ``workload``'s kernel ``kernel_index``
        (warp indices in block order), over its trace columns."""
        n = self.n = workload.kernels[kernel_index].num_warps
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
        #: Outstanding faulted pages per warp (mirrored by waiting_count).
        self.waiting_pages: list[set[int]] = [set() for _ in range(n)]
        #: Handle objects, index-aligned.
        self.warps: list[SoAWarp] = []
        #: Shared :class:`repro.lifecycle.TransitionValidator`; installed
        #: only under ``check_invariants`` (one ``is None`` test on the
        #: handle paths; the inlined array loops stay untouched and are
        #: covered transitively by the golden corpus).
        self.validator = None
        self._load_trace(workload, kernel_index, page_shift, time_scale)

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
        state = {name: getattr(self, name) for name in self.__slots__}
        for name in _TRACE_COLUMNS:
            del state[name]
        return state

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
        """Return the handle for warp ``index`` (a warp with no ops
        starts finished)."""
        n_ops = len(self.op_compute[index])
        self.n_ops[index] = n_ops
        if not n_ops:
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
    def finished(self) -> bool:
        return self.store.state[self.index] == FINISHED

    @property
    def remaining_ops(self) -> int:
        return self.store.n_ops[self.index] - self.store.pc[self.index]

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
    "kernel_derived",
    "kernel_independent",
    "READY",
    "RUNNING",
    "STALLED",
    "SUSPENDED",
    "FINISHED",
]
