"""PageRank (PR) — push-style power iteration.

Every iteration scans all vertices thread-centrically: read the vertex's
rank record, then push a contribution along each outgoing edge with a
scattered read-modify-write of the destination's accumulator.  Two
iterations are traced by default (the memory behaviour is identical per
iteration; more iterations only lengthen the run).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import WARP_SIZE
from repro.workloads.graph import CsrGraph
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


def build_pagerank(graph: CsrGraph, iterations: int = 2, **kwargs) -> Workload:
    builder = GraphWorkloadBuilder(graph, **kwargs)
    # Double-buffered rank accumulators.
    rank_next = builder.vas.allocate("rank_next", graph.num_vertices, 8)

    def accumulator_addr(_edge_index, dst):
        return [rank_next.addrs(dst)]

    vertices = np.arange(graph.num_vertices)
    pushing = np.flatnonzero(graph.degrees() > 0)
    kernels: list[KernelTrace] = []
    for it in range(iterations):
        ops = builder.topological_kernel(f"PR-IT{it}")
        builder.emit_tc_expansion(
            ops,
            pushing // WARP_SIZE,
            pushing,
            dst_store=True,
            extra_dst_addrs=accumulator_addr,
        )
        # Normalization write of the own rank record.
        builder.emit_active_properties(
            ops, vertices // WARP_SIZE, vertices, is_store=True
        )
        kernels.append(ops.build())
    return builder.workload("PR", kernels)
