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

from repro.gpu.config import WARP_SIZE
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
        ops = builder.topological_kernel(f"GC-TTC-R{rnd}")
        active = np.flatnonzero(~colored)
        warp = active // WARP_SIZE
        builder.emit_active_properties(ops, warp, active)
        # Read every neighbour's colour record; write own colour.
        builder.emit_tc_expansion(ops, warp, active)
        builder.emit_active_properties(ops, warp, active, is_store=True)
        kernels.append(ops.build())
        colored[winners] = True
    return builder.workload("GC-TTC", kernels)


def build_gc_dtc(graph: CsrGraph, **kwargs) -> Workload:
    builder = _GcBuilder(graph, **kwargs)
    colored = np.zeros(graph.num_vertices, dtype=bool)
    kernels: list[KernelTrace] = []
    for rnd, winners in enumerate(builder.rounds):
        worklist = np.flatnonzero(~colored)
        ops = builder.data_driven_kernel(f"GC-DTC-R{rnd}", builder.worklist, worklist)
        warp = np.arange(worklist.size) // WARP_SIZE
        builder.emit_active_properties(ops, warp, worklist)
        builder.emit_tc_expansion(ops, warp, worklist)
        builder.emit_active_properties(ops, warp, worklist, is_store=True)
        kernels.append(ops.build())
        colored[winners] = True
    return builder.workload("GC-DTC", kernels)
