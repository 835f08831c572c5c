"""Per-op trace objects for tests: :class:`WarpOp` and its adapters.

Traces are columnar (:mod:`repro.workloads.trace`); there is no Python
object per op in the simulator.  Tests state small traces as op lists,
and the object warp oracle (:mod:`tests.object_model`) runs on them,
so this module keeps the per-op form: :class:`WarpOp` derives its
pages, lines, store pages and independent pages itself, independently
of :func:`~repro.gpu.warp_soa.kernel_derived`.  :func:`kernel_of`
feeds op lists through the public
:class:`~repro.workloads.trace.KernelBuilder`, and :func:`ops_of`
reads a kernel's columns back as op lists.
"""

from __future__ import annotations

from typing import Sequence

from repro.gpu.config import LINE_SIZE, WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.workloads.trace import KernelBuilder, KernelTrace


class WarpOp:
    """One coalesced memory instruction plus the compute preceding it.

    ``addresses`` are virtual byte addresses; the access unit derives the
    unique cache lines and pages itself.  An op with no addresses models a
    pure-compute stretch (e.g. the tail of a kernel).
    """

    __slots__ = (
        "compute_cycles",
        "addresses",
        "is_store",
        "store_addresses",
        "dependent_addresses",
        "_lines",
        "_pages",
        "_store_pages",
        "_independent_pages",
    )

    def __init__(
        self,
        compute_cycles: int,
        addresses: Sequence[int] = (),
        is_store: bool = False,
        store_addresses: Sequence[int] | None = None,
        dependent_addresses: Sequence[int] | None = None,
    ) -> None:
        self.compute_cycles = int(compute_cycles)
        self.addresses = tuple(int(a) for a in addresses)
        self.is_store = is_store
        # Which of the addresses are written.  ``is_store`` without an
        # explicit subset means the whole access is a store.
        if store_addresses is not None:
            self.store_addresses = tuple(int(a) for a in store_addresses)
            self.is_store = self.is_store or bool(self.store_addresses)
        elif is_store:
            self.store_addresses = self.addresses
        else:
            self.store_addresses = ()
        # Addresses computable only from earlier loads' *values* (e.g. a
        # destination property record found through an edge list entry).
        # Speculative techniques — runahead probing — cannot form these.
        self.dependent_addresses = (
            tuple(int(a) for a in dependent_addresses)
            if dependent_addresses is not None
            else ()
        )
        # Memoized derived sets: ops are immutable and re-executed on
        # fault replays, so these are hot.
        self._lines: tuple[int, ...] | None = None
        self._pages: tuple[int, tuple[int, ...]] | None = None
        self._store_pages: tuple[int, tuple[int, ...]] | None = None
        self._independent_pages: tuple[int, tuple[int, ...]] | None = None

    def lines(self) -> tuple[int, ...]:
        """Unique 128-byte line numbers touched, ascending."""
        if self._lines is None:
            self._lines = tuple(sorted({a // LINE_SIZE for a in self.addresses}))
        return self._lines

    def pages(self, page_shift: int) -> tuple[int, ...]:
        """Unique virtual page numbers touched, ascending."""
        cached = self._pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        pages = tuple(sorted({a >> page_shift for a in self.addresses}))
        self._pages = (page_shift, pages)
        return pages

    def store_pages(self, page_shift: int) -> tuple[int, ...]:
        """Unique virtual page numbers *written*, ascending."""
        if not self.store_addresses:
            return ()
        cached = self._store_pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        pages = tuple(sorted({a >> page_shift for a in self.store_addresses}))
        self._store_pages = (page_shift, pages)
        return pages

    def independent_pages(self, page_shift: int) -> tuple[int, ...]:
        """Pages whose addresses are computable without loaded values —
        the only ones a runahead engine can probe."""
        cached = self._independent_pages
        if cached is not None and cached[0] == page_shift:
            return cached[1]
        dependent = set(self.dependent_addresses)
        pages = tuple(
            sorted(
                {a >> page_shift for a in self.addresses if a not in dependent}
            )
        )
        self._independent_pages = (page_shift, pages)
        return pages

    def __repr__(self) -> str:
        return (
            f"WarpOp(compute={self.compute_cycles}, "
            f"naddr={len(self.addresses)}, store={self.is_store})"
        )


def kernel_of(
    op_lists: Sequence[Sequence[WarpOp]], resources: KernelResources | None = None
) -> KernelTrace:
    """A kernel with one warp per op list, built by :class:`KernelBuilder`;
    by default all warps form one block.

    The builder adds a jitter of ``k % 5`` cycles to op ``k``'s compute
    when the op has addresses; it is subtracted here, so each op keeps
    exactly its own cycles."""
    if resources is None:
        resources = KernelResources(threads_per_block=WARP_SIZE * max(1, len(op_lists)))
    builder = KernelBuilder("k", len(op_lists), resources)
    for warp, ops in enumerate(op_lists):
        for k, op in enumerate(ops):
            stores, dependent = set(op.store_addresses), set(op.dependent_addresses)
            builder.access(
                warp,
                [len(op.addresses)],
                op.addresses,
                store=[a in stores for a in op.addresses],
                dependent=[a in dependent for a in op.addresses],
                compute=op.compute_cycles - (k % 5 if op.addresses else 0),
            )
    return builder.build()


def ops_of(kernel: KernelTrace) -> list[list[list[WarpOp]]]:
    """``kernel``'s ops, block by block and warp by warp."""
    addresses = kernel.addresses.tolist()
    store = kernel.store.tolist()
    dependent = kernel.dependent.tolist()
    ops = []
    start = 0
    for compute, end in zip(kernel.compute.tolist(), kernel.op_end.tolist()):
        run = range(start, end)
        ops.append(
            WarpOp(
                compute,
                addresses[start:end],
                store_addresses=[addresses[i] for i in run if store[i]],
                dependent_addresses=[addresses[i] for i in run if dependent[i]],
            )
        )
        start = end
    warp_start = kernel.warp_start.tolist()
    warps = [ops[lo:hi] for lo, hi in zip(warp_start, warp_start[1:])]
    block_start = kernel.block_start.tolist()
    return [warps[lo:hi] for lo, hi in zip(block_start, block_start[1:])]
