"""Breadth-first search — the five GraphBIG implementations.

* **BFS-TTC** — topological thread-centric: every level scans all
  vertices; each thread expands its own vertex's adjacency list.
* **BFS-TA** — topological atomic: like TTC, but discoveries update the
  destination property with an atomic, adding a read-modify-write access.
* **BFS-TF** — topological frontier: an explicit frontier queue is read
  coalesced; expansion stays thread-centric; discoveries append to the
  next-level queue.
* **BFS-TWC** — topological warp-centric: every level scans all vertices;
  a warp expands its vertices one at a time with coalesced edge chunks.
* **BFS-DWC** — data-driven warp-centric: the frontier queue drives
  warp-centric expansion.  On the GPU the queue is in discovery order,
  producing the extremely divergent page-access pattern the paper
  singles out (Section 5.2: constant page thrashing); here it is still
  in vertex order (see :meth:`_BfsBuilder.frontier_at`).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import WARP_SIZE
from repro.workloads.graph import CsrGraph, bfs_levels
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload, run_ranks


class _BfsBuilder(GraphWorkloadBuilder):
    """Adds the BFS frontier queues to the base layout."""

    def __init__(self, graph: CsrGraph, source: int = 0, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.source = source
        self.levels = bfs_levels(graph, source)
        self.frontier_q = self.vas.allocate(
            "frontier_q", max(1, graph.num_vertices), 8
        )
        self.next_q = self.vas.allocate("next_q", max(1, graph.num_vertices), 8)

    def frontier_at(self, level: int) -> np.ndarray:
        """Vertices at ``level`` in ascending vertex order.

        Not host-BFS discovery order, which the data-driven kernels'
        queues model: a sorted frontier coalesces better than a real
        queue (ROADMAP item 5)."""
        return np.flatnonzero(self.levels == level)

    @property
    def max_level(self) -> int:
        reachable = self.levels[self.levels >= 0]
        return int(reachable.max()) if reachable.size else 0

    def discoveries(self, warp, vertices, level: int) -> tuple[np.ndarray, ...]:
        """Per warp, the destinations first discovered by expanding its
        lanes' ``vertices``, in order: each one's warp, and the vertex."""
        found_by = np.repeat(warp, self.graph.degrees()[vertices])
        reached = self.graph.edges[self.graph.edge_indices(vertices)]
        new = self.levels[reached] == level + 1
        found_by, reached = found_by[new], reached[new]
        _, first = np.unique(
            found_by * self.graph.num_vertices + reached, return_index=True
        )
        first.sort()
        return found_by[first], reached[first]


def _topological_bfs(builder: _BfsBuilder, name: str, warp_centric: bool,
                     atomic: bool = False) -> Workload:
    expand = builder.emit_wc_expansion if warp_centric else builder.emit_tc_expansion
    kernels: list[KernelTrace] = []
    for level in range(builder.max_level + 1):
        active = builder.frontier_at(level)
        if not active.size:
            break
        ops = builder.topological_kernel(f"{name}-L{level}")
        warp = active // WARP_SIZE
        builder.emit_active_properties(ops, warp, active)
        expand(ops, warp, active, dst_store=True)
        if atomic:
            # Atomic compare-and-swap on each discovered destination:
            # one extra read-modify-write round trip.
            found_by, found = builder.discoveries(warp, active, level)
            ops.warp_ops(found_by, builder.vprop.addrs(found), store=True, compute=16)
        kernels.append(ops.build())
    return builder.workload(name, kernels)


def _data_driven_bfs(builder: _BfsBuilder, name: str, warp_centric: bool) -> Workload:
    expand = builder.emit_wc_expansion if warp_centric else builder.emit_tc_expansion
    kernels: list[KernelTrace] = []
    for level in range(builder.max_level + 1):
        frontier = builder.frontier_at(level)
        if not frontier.size:
            break
        # Lanes read their frontier queue slots (coalesced).
        ops = builder.data_driven_kernel(
            f"{name}-L{level}", builder.frontier_q, frontier
        )
        warp = np.arange(frontier.size) // WARP_SIZE
        builder.emit_active_properties(ops, warp, frontier)
        expand(ops, warp, frontier, dst_store=True)
        # Each warp appends its discoveries to the next-level queue.
        found_by, _ = builder.discoveries(warp, frontier, level)
        slot = run_ranks(np.unique(found_by, return_counts=True)[1])
        ops.warp_ops(found_by, builder.next_q.addrs(slot), store=True)
        kernels.append(ops.build())
    return builder.workload(name, kernels)


def build_bfs_ttc(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = _BfsBuilder(graph, source, **kwargs)
    return _topological_bfs(builder, "BFS-TTC", warp_centric=False)


def build_bfs_ta(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = _BfsBuilder(graph, source, **kwargs)
    return _topological_bfs(builder, "BFS-TA", warp_centric=False, atomic=True)


def build_bfs_twc(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = _BfsBuilder(graph, source, **kwargs)
    return _topological_bfs(builder, "BFS-TWC", warp_centric=True)


def build_bfs_tf(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = _BfsBuilder(graph, source, **kwargs)
    return _data_driven_bfs(builder, "BFS-TF", warp_centric=False)


def build_bfs_dwc(graph: CsrGraph, source: int = 0, **kwargs) -> Workload:
    builder = _BfsBuilder(graph, source, **kwargs)
    return _data_driven_bfs(builder, "BFS-DWC", warp_centric=True)
