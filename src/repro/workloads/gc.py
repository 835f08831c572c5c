"""Graph Coloring (GC) — data-thread-centric and topological-thread-centric.

Jones–Plassmann style parallel coloring: every round, an uncolored vertex
whose random priority beats all uncolored neighbours takes the smallest
colour absent from its neighbourhood.  Each round a GPU kernel reads the
neighbours' colour records (scattered ``vprop`` traffic).

* **GC-TTC** scans all vertices every round (topological).
* **GC-DTC** processes only the still-uncoloured worklist (data-driven),
  whose order scatters as rounds progress.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.graph import CsrGraph
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


def _coloring_rounds(graph: CsrGraph, seed: int = 7) -> list[np.ndarray]:
    """Host-side Jones–Plassmann: vertices coloured per round.

    A vertex wins a round when its random priority beats every still-
    uncoloured neighbour (in either edge direction), so each round's
    winners form an independent set.  Priorities are a permutation, so
    the highest-priority uncoloured vertex always wins and every round
    colours at least one vertex.
    """
    n = graph.num_vertices
    priority = np.random.default_rng(seed).permutation(n)
    sources = np.repeat(np.arange(n), graph.degrees())
    # Conflicts are undirected even on a directed CSR: each edge counts
    # both ways, and only a higher-priority ``b`` can make ``a`` lose.
    a = np.concatenate((sources, graph.edges))
    b = np.concatenate((graph.edges, sources))
    outranked = priority[b] > priority[a]
    a, b = a[outranked], b[outranked]
    uncolored = np.ones(n, dtype=bool)
    rounds: list[np.ndarray] = []
    while uncolored.any():
        live = uncolored[a] & uncolored[b]
        a, b = a[live], b[live]
        loses = np.zeros(n, dtype=bool)
        loses[a] = True
        winners = np.flatnonzero(uncolored & ~loses)
        rounds.append(winners)
        uncolored[winners] = False
    return rounds


class _GcBuilder(GraphWorkloadBuilder):
    """Adds the colouring schedule and the data-driven worklist array.

    ``max_rounds`` bounds the number of *traced* rounds: Jones–Plassmann
    colours the vast majority of vertices in the first few rounds, and the
    long tail of near-empty rounds adds simulation time without changing
    the memory behaviour.
    """

    def __init__(
        self, graph: CsrGraph, seed: int = 7, max_rounds: int = 8, **kwargs
    ) -> None:
        super().__init__(graph, **kwargs)
        self.rounds = _coloring_rounds(graph, seed)[:max_rounds]
        self.worklist = self.vas.allocate("worklist", max(1, graph.num_vertices), 8)


def build_gc_ttc(graph: CsrGraph, **kwargs) -> Workload:
    builder = _GcBuilder(graph, **kwargs)
    colored = np.zeros(graph.num_vertices, dtype=bool)
    kernels: list[KernelTrace] = []
    for rnd, winners in enumerate(builder.rounds):
        uncolored_set = set(np.flatnonzero(~colored).tolist())

        def emit(ops, vertices, _uncolored=uncolored_set):
            builder.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _uncolored]
            if not active:
                return
            builder.emit_active_properties(ops, active)
            # Read every neighbour's colour record; write own colour.
            builder.emit_tc_expansion(ops, active, touch_dst=True)
            ops.access(builder.vprop_addrs(active), is_store=True)

        kernels.append(builder.topological_kernel(f"GC-TTC-R{rnd}", emit))
        colored[winners] = True
    return builder.workload("GC-TTC", kernels)


def build_gc_dtc(graph: CsrGraph, **kwargs) -> Workload:
    builder = _GcBuilder(graph, **kwargs)
    colored = np.zeros(graph.num_vertices, dtype=bool)
    kernels: list[KernelTrace] = []
    for rnd, winners in enumerate(builder.rounds):
        worklist = np.flatnonzero(~colored)

        def emit(ops, chunk, queue_offset):
            ops.access(builder.worklist.addrs(np.arange(len(chunk)) + queue_offset))
            builder.emit_active_properties(ops, chunk)
            builder.emit_tc_expansion(ops, chunk, touch_dst=True)
            ops.access(builder.vprop_addrs(chunk), is_store=True)

        kernels.append(
            builder.data_driven_kernel(f"GC-DTC-R{rnd}", worklist.tolist(), emit)
        )
        colored[winners] = True
    return builder.workload("GC-DTC", kernels)
