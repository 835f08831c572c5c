"""K-core decomposition (KCORE).

Iterative peeling (Matula & Beck): every round, vertices whose remaining
degree falls below ``k`` are removed and their neighbours' degree records
decremented — a scatter read-modify-write into ``vprop``.  Each round is
one topological kernel scanning all vertices' degree records.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.config import WARP_SIZE
from repro.workloads.graph import CsrGraph
from repro.workloads.graphbig import GraphWorkloadBuilder
from repro.workloads.trace import KernelTrace, Workload


def _peeling_rounds(graph: CsrGraph, k: int) -> list[np.ndarray]:
    """Host-side peeling: vertices removed per round."""
    degrees = graph.degrees().astype(np.int64).copy()
    alive = np.ones(graph.num_vertices, dtype=bool)
    rounds: list[np.ndarray] = []
    while True:
        doomed = np.flatnonzero(alive & (degrees < k))
        if not doomed.size:
            break
        rounds.append(doomed)
        alive[doomed] = False
        neighbours = graph.edges[graph.edge_indices(doomed)]
        np.subtract.at(degrees, neighbours[alive[neighbours]], 1)
    return rounds


def build_kcore(graph: CsrGraph, k: int | None = None, max_rounds: int = 8,
                **kwargs) -> Workload:
    builder = GraphWorkloadBuilder(graph, **kwargs)
    if k is None:
        # Peel up to the average degree: gives a handful of meaty rounds.
        k = max(2, int(graph.num_edges / max(1, graph.num_vertices)))
    rounds = _peeling_rounds(graph, k)[:max_rounds]

    kernels: list[KernelTrace] = []
    for rnd, removed in enumerate(rounds):
        # Degree check for every lane's vertex.
        ops = builder.topological_kernel(f"KCORE-R{rnd}")
        warp = removed // WARP_SIZE
        builder.emit_active_properties(ops, warp, removed, is_store=True)
        # Decrement each neighbour's degree record.
        builder.emit_tc_expansion(ops, warp, removed, dst_store=True)
        kernels.append(ops.build())

    if not kernels:
        # Degenerate graph (nothing peels): still scan degrees once.
        kernels.append(builder.topological_kernel("KCORE-R0").build())
    return builder.workload("KCORE", kernels)
