"""Warp trace ops and warp states.

A warp is the primary execution unit: 32 scalar threads in SIMT lockstep.
Each warp executes a pre-generated *trace* of :class:`WarpOp` items.  A warp
op bundles the compute cycles leading up to one (coalesced) memory
instruction with the byte addresses the instruction touches.  The simulator
advances a warp op-by-op; a warp stalls when any page it touches is not
resident in GPU memory (Section 2.2: "A warp is stalled once it generates a
page fault").  Warp state itself lives in struct-of-arrays form
(:mod:`repro.gpu.warp_soa`).
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.gpu.config import LINE_SIZE
from repro.lifecycle import WARP_LIFECYCLE


class WarpState(enum.Enum):
    READY = "ready"          # runnable, next op not yet scheduled
    RUNNING = "running"      # op event in flight
    STALLED = "stalled"      # waiting on one or more page faults
    SUSPENDED = "suspended"  # block context-switched out (TO)
    FINISHED = "finished"


# The declared machine is the single source of truth for warp states;
# this enum (and the warp store's integer codes) must mirror it exactly.
assert tuple(s.value for s in WarpState) == WARP_LIFECYCLE.states


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
