"""Build warp handles and thread blocks over a fresh WarpStore, and drive
their warps through the store's transitions."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.gpu.thread_block import ThreadBlock
from repro.gpu.warp import WarpState
from repro.gpu.warp_soa import RUNNING, CheckedWarpStore, SoAWarp, WarpStore
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import Workload
from tests.warp_ops import WarpOp, kernel_of

PAGE_SHIFT = 12


def make_store(
    op_lists: Sequence[Sequence[WarpOp]],
    time_scale: float = 1.0,
    warps_per_block: int | None = None,
    validator=None,
) -> WarpStore:
    """One warp per op list, all in one block of a one-kernel workload
    unless ``warps_per_block`` splits them; warp ``i`` has index and
    warp id ``i``.  With a ``validator``, a :class:`CheckedWarpStore`."""
    resources = (
        KernelResources(threads_per_block=WARP_SIZE * warps_per_block)
        if warps_per_block
        else None
    )
    kernel = kernel_of(op_lists, resources)
    workload = Workload("w", AddressSpace(1 << PAGE_SHIFT), [kernel])
    args = (workload, 0, PAGE_SHIFT, time_scale)
    if validator is None:
        store = WarpStore(*args)
    else:
        store = CheckedWarpStore(validator, *args)
    for i in range(len(op_lists)):
        store.add_handle(i, i)
    return store


def make_warp(ops: Sequence[WarpOp]) -> SoAWarp:
    return make_store([ops]).warps[0]


def make_block(block_id: int, op_lists: Sequence[Sequence[WarpOp]]) -> ThreadBlock:
    return ThreadBlock(block_id, make_store(op_lists).warps)


def stall(warp: SoAWarp, pages: Iterable[int], now: int = 0) -> None:
    warp.store.stall(warp.index, pages, now)


def arrive(warp: SoAWarp, page: int, now: int = 0) -> bool:
    return warp.store.page_arrived(warp.index, page, now)


def run_op(warp: SoAWarp) -> None:
    """Issue and retire ``warp``'s current op as the simulator's issue
    loop does: the warp stays RUNNING, and its last op finishes it."""
    store, i = warp.store, warp.index
    if store.state[i] != RUNNING:
        store.issue(i)
    store.pc[i] += 1
    if store.pc[i] == len(store.op_compute[i]):
        store.finish(i)


def drive(warp: SoAWarp, state: WarpState) -> None:
    """Take a fresh (READY) warp to ``state`` by declared transitions."""
    store, i = warp.store, warp.index
    if state is WarpState.SUSPENDED:
        store.suspend(i)
    elif state is not WarpState.READY:
        store.issue(i)
        if state is WarpState.STALLED:
            store.stall(i, [1 << 40], 0)
        elif state is WarpState.FINISHED:
            store.finish(i)
    assert warp.state is state
