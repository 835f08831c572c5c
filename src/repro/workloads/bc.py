"""Betweenness centrality (BC) — Brandes' algorithm, single source.

Forward phase: level-synchronous BFS accumulating path counts (sigma) —
thread-centric expansion with scattered sigma read-modify-writes.
Backward phase: levels are walked in descending order; each vertex pulls
its successors' dependency records (delta), again scattered.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import WARP_SIZE
from repro.workloads.graph import CsrGraph, bfs_levels
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


def build_bc(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = GraphWorkloadBuilder(graph, **kwargs)
    # sigma/delta live in their own arrays (Brandes bookkeeping).
    sigma = builder.vas.allocate("sigma", graph.num_vertices, 8)
    delta = builder.vas.allocate("delta", graph.num_vertices, 8)
    levels = bfs_levels(graph, source)
    reachable = levels[levels >= 0]
    max_level = int(reachable.max()) if reachable.size else 0

    def sigma_addr(_edge_index, dst):
        return [sigma.addrs(dst)]

    def delta_addr(_edge_index, dst):
        return [delta.addrs(dst), sigma.addrs(dst)]

    kernels: list[KernelTrace] = []

    # ---------------- forward (BFS + sigma accumulation) ----------------
    for level in range(max_level + 1):
        active = np.flatnonzero(levels == level)
        if not active.size:
            break
        ops = builder.topological_kernel(f"BC-FWD-L{level}")
        warp = active // WARP_SIZE
        builder.emit_active_properties(ops, warp, active)
        builder.emit_tc_expansion(
            ops, warp, active, dst_store=True, extra_dst_addrs=sigma_addr
        )
        kernels.append(ops.build())

    # ---------------- backward (dependency accumulation) ----------------
    for level in range(max_level, -1, -1):
        active = np.flatnonzero(levels == level)
        if not active.size:
            continue
        ops = builder.topological_kernel(f"BC-BWD-L{level}")
        warp = active // WARP_SIZE
        builder.emit_active_properties(ops, warp, active)
        builder.emit_tc_expansion(ops, warp, active, extra_dst_addrs=delta_addr)
        # Write back own delta and centrality record: each warp's delta
        # records, then its property records.
        ops.warp_ops(
            np.concatenate((warp, warp)),
            np.concatenate((delta.addrs(active), builder.vprop.addrs(active))),
            store=True,
        )
        kernels.append(ops.build())

    return builder.workload("BC", kernels)
