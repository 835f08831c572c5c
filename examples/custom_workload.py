#!/usr/bin/env python3
"""Bring your own workload: hand-built traces through the public API.

Builds a synthetic "pointer chasing over a hash table" workload — a warp
alternates between a hot index array (sequential) and cold table buckets
(strided, pseudo-random) — and studies how each memory-management system
copes.  Demonstrates the trace-building API surface a downstream user
would adopt: AddressSpace, KernelBuilder (one launch's ops for all its
warps at once, as NumPy arrays), Workload, and the system presets.
"""

import argparse

import numpy as np

from repro import GpuUvmSimulator, systems
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.trace import KernelBuilder, Workload

PAGE_SIZE = 4096
WARPS_PER_BLOCK = 4


def build_hash_probe_workload(num_blocks=12, probes_per_warp=40,
                              table_pages=64) -> Workload:
    """Each warp streams an index array and probes scattered buckets.

    The 32 lanes of a probe hit a handful of distinct table pages (buckets
    cluster into cache-line-sized groups), which keeps the per-op working
    set realistic — a warp whose every access spans 32 pages would need
    them all resident simultaneously and thrash any finite memory.
    """
    vas = AddressSpace(PAGE_SIZE)
    index = vas.allocate("index", num_blocks * WARPS_PER_BLOCK * probes_per_warp, 8)
    table = vas.allocate("table", table_pages * PAGE_SIZE // 64, 64)
    buckets = table.num_elements

    num_warps = num_blocks * WARPS_PER_BLOCK
    ops = KernelBuilder(
        "hash-probe",
        num_warps,
        KernelResources(threads_per_block=32 * WARPS_PER_BLOCK,
                        registers_per_thread=56),
        compute_cycles=12,
    )
    # Probe p belongs to warp p // probes_per_warp and is two ops: a
    # sequential read of the next index (coalesced), then 32 bucket
    # probes scattered over ~4 distinct pages.
    probe = np.arange(num_warps * probes_per_warp)
    group = (probe * 2654435761) % buckets
    lane = np.arange(32)
    bucket = (group[:, None] + lane * 7 + (lane % 4) * (buckets // 4)) % buckets
    ops.access(
        np.repeat(probe // probes_per_warp, 2),
        np.tile([1, 32], probe.size),
        np.column_stack((index.addrs(probe), table.addrs(bucket))),
    )
    kernel = ops.build()
    return Workload("HASH-PROBE", vas, [kernel], num_sms_hint=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratio", type=float, default=0.8,
                        help="GPU memory as a fraction of the footprint")
    args = parser.parse_args()

    workload = build_hash_probe_workload()
    print(
        f"{workload.name}: {workload.footprint_pages} pages, "
        f"{workload.num_ops} warp ops, GPU memory at {args.ratio:.0%}\n"
    )

    presets = (systems.BASELINE, systems.TO, systems.UE, systems.TO_UE)
    base_cycles = None
    for preset in presets:
        config = preset.configure(workload, ratio=args.ratio)
        result = GpuUvmSimulator(workload, config).run()
        base_cycles = base_cycles or result.exec_cycles
        stats = result.batch_stats
        print(
            f"{preset.name:9s} {result.exec_cycles:>12,} cycles "
            f"({base_cycles / result.exec_cycles:4.2f}x)  "
            f"batches={stats.num_batches:<5} "
            f"pages/batch={stats.mean_batch_pages:6.1f}  "
            f"evictions={result.evicted_pages}"
        )


if __name__ == "__main__":
    main()
