"""Build warp handles and thread blocks over a fresh WarpStore."""

from __future__ import annotations

from typing import Sequence

from repro.gpu.thread_block import ThreadBlock
from repro.gpu.warp_soa import SoAWarp, WarpStore
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import Workload
from tests.warp_ops import WarpOp, kernel_of

PAGE_SHIFT = 12


def make_store(
    op_lists: Sequence[Sequence[WarpOp]], time_scale: float = 1.0
) -> WarpStore:
    """One warp per op list, all in one block of a one-kernel workload;
    warp ``i`` has index and warp id ``i``."""
    workload = Workload("w", AddressSpace(1 << PAGE_SHIFT), [kernel_of(op_lists)])
    store = WarpStore(workload, 0, PAGE_SHIFT, time_scale)
    for i in range(len(op_lists)):
        store.add_handle(i, i)
    return store


def make_warp(ops: Sequence[WarpOp]) -> SoAWarp:
    return make_store([ops]).warps[0]


def make_block(block_id: int, op_lists: Sequence[Sequence[WarpOp]]) -> ThreadBlock:
    return ThreadBlock(block_id, make_store(op_lists).warps)
