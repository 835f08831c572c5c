"""Regular-workload analogues (Figure 1's top panel).

CFD, DWT, GM, H3D, HS, and LUD from Rodinia are *regular*: each thread
block works on its own tile of the data, so the instantaneous working set
scales with the number of blocks — and hence with the number of active
SMs, which is what makes ETC's core throttling effective for them.

These generators reproduce that structure: block ``b`` streams through its
private tile (plus, for the stencil codes, a halo shared with the
neighbouring tiles), with no globally shared hot data beyond a small
constant segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import (
    BlockTrace,
    KernelTrace,
    WarpOpsBuilder,
    Workload,
)


@dataclass(frozen=True)
class RegularSpec:
    """Shape of one regular workload."""

    name: str
    #: Bytes of private tile data each block streams through.
    tile_bytes: int
    #: Fraction of the tile shared with the neighbouring block (stencils).
    halo_fraction: float
    #: Times each block sweeps its tile.
    sweeps: int


#: Tile shapes loosely matching the Rodinia kernels' access structure.
REGULAR_SPECS = {
    "CFD": RegularSpec("CFD", tile_bytes=128 * 1024, halo_fraction=0.10, sweeps=3),
    "DWT": RegularSpec("DWT", tile_bytes=96 * 1024, halo_fraction=0.0, sweeps=2),
    "GM": RegularSpec("GM", tile_bytes=160 * 1024, halo_fraction=0.0, sweeps=2),
    "H3D": RegularSpec("H3D", tile_bytes=128 * 1024, halo_fraction=0.15, sweeps=3),
    "HS": RegularSpec("HS", tile_bytes=96 * 1024, halo_fraction=0.12, sweeps=3),
    "LUD": RegularSpec("LUD", tile_bytes=112 * 1024, halo_fraction=0.05, sweeps=2),
}


def build_regular(
    name: str,
    num_blocks: int = 128,
    page_size: int = 64 * 1024,
    threads_per_block: int = 256,
) -> Workload:
    """Build a regular workload with ``num_blocks`` tiled blocks."""
    try:
        spec = REGULAR_SPECS[name.upper()]
    except KeyError:
        raise WorkloadError(
            f"unknown regular workload {name!r}; choose from "
            f"{sorted(REGULAR_SPECS)}"
        ) from None
    if num_blocks <= 0:
        raise WorkloadError("num_blocks must be positive")

    vas = AddressSpace(page_size)
    stride = 8  # double-precision elements
    elems_per_tile = spec.tile_bytes // stride
    data = vas.allocate("data", elems_per_tile * num_blocks, stride)
    out = vas.allocate("out", elems_per_tile * num_blocks, stride)
    constants = vas.allocate("constants", 1024, stride)

    warps_per_block = threads_per_block // WARP_SIZE
    halo = int(elems_per_tile * spec.halo_fraction)
    blocks: list[BlockTrace] = []
    for b in range(num_blocks):
        tile_start = b * elems_per_tile
        lo = max(0, tile_start - halo)
        hi = min(elems_per_tile * num_blocks, tile_start + elems_per_tile + halo)
        span = hi - lo
        per_warp = max(1, span // warps_per_block)
        warp_ops = []
        for w in range(warps_per_block):
            ops = WarpOpsBuilder()
            ops.access([constants.addr_unchecked(w % 1024)])
            w_lo = lo + w * per_warp
            w_hi = min(hi, w_lo + per_warp)
            tile = data.addrs(range(w_lo, w_hi)).tolist()
            written = out.addrs(range(w_lo, min(w_lo + WARP_SIZE, w_hi))).tolist()
            # One sweep: the tile WARP_SIZE lanes at a time, then one store.
            sweep = tile + written
            ends = [*range(WARP_SIZE, len(tile), WARP_SIZE), len(tile), len(sweep)]
            store = [False] * len(tile) + [True] * len(written)
            for _ in range(spec.sweeps if tile else 0):
                ops.access_many(sweep, ends, store, [False] * len(sweep))
            warp_ops.append(ops.build())
        blocks.append(BlockTrace(warp_ops))

    kernel = KernelTrace(
        spec.name,
        blocks,
        KernelResources(threads_per_block=threads_per_block, registers_per_thread=24),
    )
    return Workload(spec.name, vas, [kernel], irregular=False)
