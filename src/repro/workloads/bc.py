"""Betweenness centrality (BC) — Brandes' algorithm, single source.

Forward phase: level-synchronous BFS accumulating path counts (sigma) —
thread-centric expansion with scattered sigma read-modify-writes.
Backward phase: levels are walked in descending order; each vertex pulls
its successors' dependency records (delta), again scattered.
"""

from __future__ import annotations

import numpy as np

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

    kernels: list[KernelTrace] = []

    # ---------------- forward (BFS + sigma accumulation) ----------------
    for level in range(max_level + 1):
        active_set = set(np.flatnonzero(levels == level).tolist())
        if not active_set:
            break

        def emit_fwd(ops, vertices, _active=active_set):
            builder.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            builder.emit_active_properties(ops, active)

            def sigma_addr(_edge_index, dst):
                return [sigma.addrs(dst)]

            builder.emit_tc_expansion(
                ops, active, touch_dst=True, dst_store=True,
                extra_dst_addrs=sigma_addr,
            )

        kernels.append(builder.topological_kernel(f"BC-FWD-L{level}", emit_fwd))

    # ---------------- backward (dependency accumulation) ----------------
    for level in range(max_level, -1, -1):
        active_set = set(np.flatnonzero(levels == level).tolist())
        if not active_set:
            continue

        def emit_bwd(ops, vertices, _active=active_set):
            builder.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            builder.emit_active_properties(ops, active)

            def delta_addr(_edge_index, dst):
                return [delta.addrs(dst), sigma.addrs(dst)]

            builder.emit_tc_expansion(
                ops, active, touch_dst=True, extra_dst_addrs=delta_addr,
            )
            # Write back own delta and centrality record.
            ops.access(
                delta.addrs(active).tolist() + builder.vprop_addrs(active),
                is_store=True,
            )

        kernels.append(builder.topological_kernel(f"BC-BWD-L{level}", emit_bwd))

    return builder.workload("BC", kernels)
