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
* **BFS-DWC** — data-driven warp-centric: the frontier queue (discovery
  order!) drives warp-centric expansion, producing the extremely
  divergent page-access pattern the paper singles out (Section 5.2:
  constant page thrashing).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.graph import CsrGraph, bfs_levels
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


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
        """Vertices at ``level`` in discovery (host-BFS) order."""
        return np.flatnonzero(self.levels == level)

    @property
    def max_level(self) -> int:
        reachable = self.levels[self.levels >= 0]
        return int(reachable.max()) if reachable.size else 0

    def discoveries(self, vertices, level: int) -> list[int]:
        """Destinations first discovered by expanding ``vertices``, in order."""
        reached = self.graph.edges[self.graph.edge_indices(vertices)]
        reached = reached[self.levels[reached] == level + 1]
        _, first = np.unique(reached, return_index=True)
        return reached[np.sort(first)].tolist()


def _topological_bfs(builder: _BfsBuilder, name: str, warp_centric: bool,
                     atomic: bool = False) -> Workload:
    kernels: list[KernelTrace] = []
    for level in range(builder.max_level + 1):
        active_set = set(int(v) for v in builder.frontier_at(level))
        if not active_set:
            break

        def emit(ops, vertices, _active=active_set, _level=level):
            builder.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            builder.emit_active_properties(ops, active)
            expand = (
                builder.emit_wc_expansion
                if warp_centric
                else builder.emit_tc_expansion
            )
            expand(ops, active, touch_dst=True, dst_store=True)
            if atomic:
                # Atomic compare-and-swap on each discovered destination:
                # one extra read-modify-write round trip.
                found = builder.discoveries(active, _level)
                ops.access(builder.vprop_addrs(found), compute=16, is_store=True)

        kernels.append(builder.topological_kernel(f"{name}-L{level}", emit))
    return builder.workload(name, kernels)


def _data_driven_bfs(builder: _BfsBuilder, name: str, warp_centric: bool) -> Workload:
    kernels: list[KernelTrace] = []
    for level in range(builder.max_level + 1):
        frontier = builder.frontier_at(level)
        if not frontier.size:
            break

        def emit(ops, chunk, queue_offset, _level=level, _wc=warp_centric):
            # Coalesced read of the frontier queue slots.
            ops.access(
                builder.frontier_q.addrs(np.arange(len(chunk)) + queue_offset)
            )
            builder.emit_active_properties(ops, chunk)
            expand = builder.emit_wc_expansion if _wc else builder.emit_tc_expansion
            expand(ops, chunk, touch_dst=True, dst_store=True)
            # Append discoveries to the next-level queue (coalesced-ish).
            found = builder.discoveries(chunk, _level)
            ops.access(
                builder.next_q.addrs(
                    np.arange(len(found)) % builder.graph.num_vertices
                ),
                is_store=True,
            )

        kernels.append(
            builder.data_driven_kernel(f"{name}-L{level}", list(frontier), emit)
        )
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
