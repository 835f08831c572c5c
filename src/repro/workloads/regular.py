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

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import KernelBuilder, Workload, run_ranks


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

    resources = KernelResources(
        threads_per_block=threads_per_block, registers_per_thread=24
    )
    warps_per_block = resources.warps_per_block
    ops = KernelBuilder(spec.name, num_blocks * warps_per_block, resources)
    warp = np.arange(num_blocks * warps_per_block)
    block, w = np.divmod(warp, warps_per_block)
    ops.warp_ops(warp, constants.addrs(w % 1024))
    # Warp w takes its share of its block's tile plus halo: elements
    # [w_lo, w_lo + tile).
    halo = int(elems_per_tile * spec.halo_fraction)
    lo = np.maximum(0, block * elems_per_tile - halo)
    hi = np.minimum(elems_per_tile * num_blocks, (block + 1) * elems_per_tile + halo)
    per_warp = np.maximum(1, (hi - lo) // warps_per_block)
    w_lo = lo + w * per_warp
    tile = np.maximum(0, np.minimum(hi, w_lo + per_warp) - w_lo)
    # One sweep: the tile WARP_SIZE lanes at a time, then one store of
    # the first outputs.
    written = np.minimum(WARP_SIZE, tile)
    sweep = tile + written
    at = run_ranks(sweep)
    tile_of, lo_of = np.repeat(tile, sweep), np.repeat(w_lo, sweep)
    store = at >= tile_of
    addresses = np.where(store, out.addrs(lo_of + at - tile_of), data.addrs(lo_of + at))
    chunks = -(-tile // WARP_SIZE)
    sweep_ops = chunks + (tile > 0)
    op_warp = np.repeat(warp, sweep_ops)
    k = run_ranks(sweep_ops)
    lengths = np.where(
        k < chunks[op_warp],
        np.minimum(WARP_SIZE, tile[op_warp] - WARP_SIZE * k),
        written[op_warp],
    )
    for _ in range(spec.sweeps):
        ops.access(op_warp, lengths, addresses, store)
    return Workload(spec.name, vas, [ops.build()], irregular=False)
