"""Build warp handles and thread blocks over a fresh WarpStore."""

from __future__ import annotations

from typing import Sequence

from repro.gpu.thread_block import ThreadBlock
from repro.gpu.warp import WarpOp
from repro.gpu.warp_soa import SoAWarp, WarpStore

PAGE_SHIFT = 12


def identity_scale(cycles: int) -> int:
    return cycles


def make_store(
    op_lists: Sequence[Sequence[WarpOp]], scale=identity_scale
) -> WarpStore:
    """One warp per op list; warp ``i`` has index and warp id ``i``."""
    store = WarpStore(len(op_lists))
    for i, ops in enumerate(op_lists):
        store.add_warp(i, i, ops, PAGE_SHIFT, scale)
    return store


def make_warp(ops: Sequence[WarpOp]) -> SoAWarp:
    return make_store([ops]).warps[0]


def make_block(block_id: int, op_lists: Sequence[Sequence[WarpOp]]) -> ThreadBlock:
    return ThreadBlock(block_id, make_store(op_lists).warps)
