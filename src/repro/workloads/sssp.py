"""Single-source shortest path (SSSP) — topological warp-centric (TWC).

Bellman–Ford-style rounds: every round scans all vertices; vertices whose
distance improved last round relax their outgoing edges warp-centrically,
reading the edge weight array and doing a read-modify-write on the
destination's distance record.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import WARP_SIZE
from repro.workloads.graph import CsrGraph
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


def _sssp_rounds(graph: CsrGraph, source: int) -> list[np.ndarray]:
    """Host-side Bellman–Ford; returns the per-round updated-vertex sets.
    Relaxations within a round see each other, so the loop is scalar."""
    offsets = graph.offsets.tolist()
    edges = graph.edges.tolist()
    weights = graph.weights.tolist()
    dist = [np.iinfo(np.int64).max] * graph.num_vertices
    dist[source] = 0
    updated = [source]
    rounds: list[np.ndarray] = []
    while updated:
        rounds.append(np.array(updated, dtype=np.int64))
        changed = set()
        for v in updated:
            for i in range(offsets[v], offsets[v + 1]):
                u = edges[i]
                candidate = dist[v] + weights[i]
                if candidate < dist[u]:
                    dist[u] = candidate
                    changed.add(u)
        updated = sorted(changed)
    return rounds


def build_sssp_twc(graph: CsrGraph, source: int = 0, max_rounds: int = 10,
                   **kwargs) -> Workload:
    builder = GraphWorkloadBuilder(graph, **kwargs)
    weights = builder.vas.allocate("weights", max(1, graph.num_edges), 8)
    rounds = _sssp_rounds(graph, source)[:max_rounds]

    def weight_addr(edge_index, _dst):
        return [weights.addrs(edge_index)]

    kernels: list[KernelTrace] = []
    for rnd, frontier in enumerate(rounds):
        ops = builder.topological_kernel(f"SSSP-TWC-R{rnd}")
        warp = frontier // WARP_SIZE
        builder.emit_active_properties(ops, warp, frontier)
        builder.emit_wc_expansion(
            ops, warp, frontier, dst_store=True, extra_dst_addrs=weight_addr
        )
        kernels.append(ops.build())
    return builder.workload("SSSP-TWC", kernels)
