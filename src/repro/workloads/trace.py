"""Kernel trace containers and trace-building helpers.

A :class:`Workload` is an ordered list of :class:`KernelTrace` launches
over one :class:`~repro.vm.address_space.AddressSpace`.  Each kernel is a
grid of :class:`BlockTrace` items; each block holds one op list per warp.
Traces carry real byte addresses into the laid-out arrays — produced by
running the actual algorithm on the host — so the page-level fault
behaviour is the algorithm's own.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.gpu.warp import WarpOp
from repro.vm.address_space import AddressSpace

#: Default compute cycles preceding each memory op.
DEFAULT_COMPUTE_CYCLES = 8


@dataclass
class BlockTrace:
    """Per-warp op lists for one thread block."""

    warp_ops: list[list[WarpOp]]

    @property
    def num_warps(self) -> int:
        return len(self.warp_ops)

    @property
    def num_ops(self) -> int:
        return sum(len(ops) for ops in self.warp_ops)

    def pages(self, page_shift: int) -> set[int]:
        """Every virtual page this block touches."""
        pages: set[int] = set()
        for ops in self.warp_ops:
            for op in ops:
                for addr in op.addresses:
                    pages.add(addr >> page_shift)
        return pages


@dataclass
class KernelTrace:
    """One kernel launch: a grid of block traces plus resource needs."""

    name: str
    blocks: list[BlockTrace]
    resources: KernelResources = field(default_factory=KernelResources)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_ops(self) -> int:
        return sum(block.num_ops for block in self.blocks)

    @property
    def num_warps(self) -> int:
        return sum(block.num_warps for block in self.blocks)

    def pages(self, page_shift: int) -> set[int]:
        pages: set[int] = set()
        for block in self.blocks:
            pages.update(block.pages(page_shift))
        return pages

    def __getstate__(self) -> dict:
        """Pickle the trace, not the process-local per-op derived cache
        (:func:`~repro.gpu.warp_soa.kernel_derived`): the bytes must not
        depend on which time scales this process has simulated."""
        state = self.__dict__.copy()
        state.pop("_derived_cache", None)
        return state


@dataclass
class Workload:
    """A named workload: address space + kernel launch sequence.

    ``num_sms_hint`` lets scaled-down workloads suggest a proportionally
    scaled-down GPU (few blocks on a 16-SM GPU would leave most SMs idle
    and give Thread Oversubscription nothing to dispatch); system presets
    honour it when building a :class:`~repro.gpu.config.SimConfig`.

    A workload the registry built carries its canonical
    ``registry_key`` and pickles *by reference*: unpickling fetches it
    back from the registry memo (rebuilding it deterministically in a
    fresh process), so checkpoints carry simulation state, not the
    trace.  Hand-built workloads pickle by value.
    """

    name: str
    address_space: AddressSpace
    kernels: list[KernelTrace]
    irregular: bool = True
    num_sms_hint: int | None = None
    #: ``(NAME, scale, seed)`` when built by
    #: :func:`~repro.workloads.registry.build_workload`.
    registry_key: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"workload {self.name!r} has no kernels")

    @property
    def footprint_bytes(self) -> int:
        return self.address_space.footprint_bytes

    @property
    def footprint_pages(self) -> int:
        return self.address_space.total_pages

    @property
    def num_ops(self) -> int:
        return sum(kernel.num_ops for kernel in self.kernels)

    @cached_property
    def shape(self) -> tuple[tuple[int, int], ...]:
        """Cheap structural signature: ``(warps, ops)`` per kernel.
        Checkpoints record it to guard the rebuilt trace."""
        return tuple((kernel.num_warps, kernel.num_ops) for kernel in self.kernels)

    def __reduce__(self):
        if self.registry_key is not None:
            from repro.workloads.registry import build_workload

            return (build_workload, self.registry_key)
        state = self.__dict__.copy()
        state.pop("shape", None)
        return (copyreg.__newobj__, (type(self),), state)

    def touched_pages(self) -> set[int]:
        shift = self.address_space.page_shift
        pages: set[int] = set()
        for kernel in self.kernels:
            pages.update(kernel.pages(shift))
        return pages


class WarpOpsBuilder:
    """Incremental builder for one warp's op list.

    Consecutive addresses are coalesced automatically by WarpOp itself
    (lines/pages are deduplicated at access time); the builder's job is
    grouping addresses into SIMT steps and attaching compute cycles.
    """

    def __init__(self, compute_cycles: int = DEFAULT_COMPUTE_CYCLES) -> None:
        self.compute_cycles = compute_cycles
        self.ops: list[WarpOp] = []

    def access(
        self,
        addresses: Iterable[int],
        compute: int | None = None,
        is_store: bool = False,
        store_addresses: Iterable[int] | None = None,
        dependent_addresses: Iterable[int] | None = None,
    ) -> None:
        """Emit one coalesced access; empty address sets are skipped.

        ``store_addresses`` names the written subset of ``addresses``
        (dirty-page tracking); ``is_store`` alone marks the whole access
        as a store.  ``dependent_addresses`` names addresses only
        computable from loaded values (opaque to runahead probing).
        """
        addrs = tuple(addresses)
        if not addrs:
            return
        compute = self.compute_cycles if compute is None else compute
        # Mild deterministic jitter keeps warps from marching in lockstep.
        jitter = len(self.ops) % 5
        stores = tuple(store_addresses) if store_addresses is not None else None
        dependent = (
            tuple(dependent_addresses)
            if dependent_addresses is not None
            else None
        )
        self.ops.append(
            WarpOp(compute + jitter, addrs, is_store, stores, dependent)
        )

    def compute(self, cycles: int) -> None:
        """Emit a pure-compute stretch (no memory access)."""
        if cycles > 0:
            self.ops.append(WarpOp(cycles, ()))

    def build(self) -> list[WarpOp]:
        return self.ops


def vertex_warps(num_vertices: int, threads_per_block: int) -> list[tuple[int, range]]:
    """Thread-centric partitioning: (warp-global-id, vertex range) pairs.

    Vertex ``v`` is handled by thread ``v``; warps cover 32 consecutive
    vertices; blocks cover ``threads_per_block`` consecutive vertices.
    """
    if threads_per_block <= 0 or threads_per_block % WARP_SIZE:
        raise WorkloadError("threads_per_block must be a positive multiple of 32")
    warps = []
    warp_id = 0
    for start in range(0, num_vertices, WARP_SIZE):
        warps.append((warp_id, range(start, min(start + WARP_SIZE, num_vertices))))
        warp_id += 1
    return warps


def group_warps_into_blocks(
    warp_ops: Sequence[list[WarpOp]], warps_per_block: int
) -> list[BlockTrace]:
    """Chunk a flat warp-op list into block traces."""
    if warps_per_block <= 0:
        raise WorkloadError("warps_per_block must be positive")
    blocks = []
    for start in range(0, len(warp_ops), warps_per_block):
        chunk = list(warp_ops[start : start + warps_per_block])
        blocks.append(BlockTrace(chunk))
    return blocks


def merge_kernel_ops(
    per_kernel_warp_ops: Sequence[Sequence[list[WarpOp]]],
) -> list[list[WarpOp]]:
    """Concatenate per-phase op lists warp-by-warp (iterative kernels that
    synchronize via kernel relaunch are folded into one persistent launch;
    see DESIGN.md section 5 for why this preserves fault behaviour)."""
    if not per_kernel_warp_ops:
        return []
    num_warps = max(len(phase) for phase in per_kernel_warp_ops)
    merged: list[list[WarpOp]] = [[] for _ in range(num_warps)]
    for phase in per_kernel_warp_ops:
        for i, ops in enumerate(phase):
            merged[i].extend(ops)
    return merged
