"""Graph substrate: CSR representation and synthetic generators.

The paper evaluates GraphBIG workloads on real-world graphs whose
footprints range from 26 MB to 349 MB.  We substitute synthetic graphs —
R-MAT (power-law, like the social networks GraphBIG ships) and
uniform-random — scaled down so the pure-Python simulator stays tractable,
while oversubscription is expressed as a *ratio* of the footprint so the
memory pressure matches the paper's setup.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class CsrGraph:
    """Compressed-sparse-row directed graph."""

    def __init__(
        self,
        offsets: np.ndarray,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise WorkloadError("offsets must be 1-D with at least two entries")
        if offsets[0] != 0 or offsets[-1] != edges.size:
            raise WorkloadError("offsets must start at 0 and end at len(edges)")
        if np.any(np.diff(offsets) < 0):
            raise WorkloadError("offsets must be non-decreasing")
        num_vertices = offsets.size - 1
        if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
            raise WorkloadError("edge endpoints out of range")
        self.offsets = offsets
        self.edges = edges
        if weights is None:
            weights = np.ones(edges.size, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.weights.shape != self.edges.shape:
            raise WorkloadError("weights must match edges")

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self.edges.size

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        return self.edges[self.offsets[v] : self.offsets[v + 1]]

    def edge_indices(self, vertices) -> np.ndarray:
        """Edge-array indices of every adjacency list of ``vertices``,
        list after list."""
        vertices = np.asarray(vertices, dtype=np.int64)
        start = self.offsets[vertices]
        degree = self.offsets[vertices + 1] - start
        first = np.cumsum(degree) - degree  # each list's place in the result
        return np.arange(degree.sum()) + np.repeat(start - first, degree)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct elements of ``values`` in ascending order: the array
    ``np.unique`` returns, from one sort and an adjacent-difference mask."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _build_csr(
    num_vertices: int, src: np.ndarray, dst: np.ndarray, seed: int
) -> CsrGraph:
    """Assemble a CSR graph from an edge list, dropping duplicates."""
    if src.size:
        # Sorted (src, dst) keys: CSR order, so the rows need no regrouping.
        keys = _sorted_distinct(src * num_vertices + dst)
        src = keys // num_vertices
        dst = keys % num_vertices
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rng = np.random.default_rng(seed ^ 0x5EED)
    weights = rng.integers(1, 64, size=dst.size, dtype=np.int64)
    return CsrGraph(offsets, dst.astype(np.int64), weights)


def generate_rmat(
    num_vertices: int,
    avg_degree: int = 8,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CsrGraph:
    """R-MAT power-law graph (Chakrabarti et al.), GraphBIG-style input.

    ``num_vertices`` is rounded up to a power of two internally for the
    recursive quadrant selection, then endpoints are folded back into
    range.
    """
    if num_vertices < 2:
        raise WorkloadError("need at least two vertices")
    if avg_degree < 1:
        raise WorkloadError("avg_degree must be >= 1")
    if min(a, b, c) < 0 or not 0 < a + b + c < 1:
        raise WorkloadError("R-MAT probabilities must be non-negative and sum below 1")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree
    levels = int(np.ceil(np.log2(num_vertices)))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # Quadrant thresholds: [a, a+b, a+b+c, 1].  The quadrant is the
    # number of thresholds strictly below r.
    ab, abc = a + b, a + b + c
    for _ in range(levels):
        src <<= 1
        dst <<= 1
        r = rng.random(num_edges)
        quadrant = (r > a).view(np.int8) + (r > ab) + (r > abc)
        src |= quadrant >> 1
        dst |= quadrant & 1
    src %= num_vertices
    dst %= num_vertices
    keep = src != dst
    return _build_csr(num_vertices, src[keep], dst[keep], seed)


def generate_uniform(num_vertices: int, avg_degree: int = 8, seed: int = 0) -> CsrGraph:
    """Uniform-random (Erdős–Rényi-like) directed graph."""
    if num_vertices < 2:
        raise WorkloadError("need at least two vertices")
    if avg_degree < 1:
        raise WorkloadError("avg_degree must be >= 1")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = src != dst
    return _build_csr(num_vertices, src[keep], dst[keep], seed)


def bfs_levels(graph: CsrGraph, source: int) -> np.ndarray:
    """Host-side BFS used to drive per-level trace generation.

    Returns the level of every vertex (-1 when unreachable).
    """
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError(f"source {source} out of range")
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        reached = graph.edges[graph.edge_indices(frontier)]
        frontier = _sorted_distinct(reached[levels[reached] == -1])
        level += 1
        levels[frontier] = level
    return levels
