"""Unit tests for the graph substrate."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.graph import (
    CsrGraph,
    bfs_levels,
    generate_rmat,
    generate_uniform,
)


def reference_csr(num_vertices, src, dst, seed):
    """The hash-unique ``_build_csr``: ``np.unique`` of the edge keys,
    then a stable regroup by source."""
    if src.size:
        keys = np.unique(src * num_vertices + dst)
        src = keys // num_vertices
        dst = keys % num_vertices
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    rng = np.random.default_rng(seed ^ 0x5EED)
    weights = rng.integers(1, 64, size=dst.size, dtype=np.int64)
    return CsrGraph(offsets, dst.astype(np.int64), weights)


def reference_rmat(num_vertices, avg_degree=8, seed=0, a=0.57, b=0.19, c=0.19):
    """``generate_rmat`` with each level's quadrant from ``searchsorted``."""
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree
    levels = int(np.ceil(np.log2(num_vertices)))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    thresholds = np.array([a, a + b, a + b + c])
    for _ in range(levels):
        src <<= 1
        dst <<= 1
        quadrant = np.searchsorted(thresholds, rng.random(num_edges))
        src |= quadrant >> 1
        dst |= quadrant & 1
    src %= num_vertices
    dst %= num_vertices
    keep = src != dst
    return reference_csr(num_vertices, src[keep], dst[keep], seed)


def reference_uniform(num_vertices, avg_degree=8, seed=0):
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * avg_degree
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = src != dst
    return reference_csr(num_vertices, src[keep], dst[keep], seed)


def reference_bfs_levels(graph, source):
    """``bfs_levels`` with each frontier from ``np.unique``."""
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        reached = graph.edges[graph.edge_indices(frontier)]
        frontier = np.unique(reached[levels[reached] == -1])
        level += 1
        levels[frontier] = level
    return levels


def assert_same_graph(graph, reference):
    for column in ("offsets", "edges", "weights"):
        got, want = getattr(graph, column), getattr(reference, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column


def tiny_graph():
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3
    offsets = np.array([0, 2, 3, 4, 4])
    edges = np.array([1, 2, 2, 3])
    return CsrGraph(offsets, edges)


class TestCsrGraph:
    def test_basic_shape(self):
        g = tiny_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_degrees(self):
        g = tiny_graph()
        assert g.degree(0) == 2
        assert g.degree(3) == 0
        assert list(g.degrees()) == [2, 1, 1, 0]

    def test_neighbors(self):
        g = tiny_graph()
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(3)) == []

    def test_default_weights(self):
        g = tiny_graph()
        assert g.weights.shape == g.edges.shape
        assert np.all(g.weights == 1)

    def test_rejects_bad_offsets(self):
        with pytest.raises(WorkloadError):
            CsrGraph(np.array([1, 2]), np.array([0]))
        with pytest.raises(WorkloadError):
            CsrGraph(np.array([0, 2, 1]), np.array([0, 0]))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(WorkloadError):
            CsrGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(WorkloadError):
            CsrGraph(np.array([0, 1, 1]), np.array([1]), weights=np.array([1, 2]))


class TestGenerators:
    def test_rmat_shape(self):
        g = generate_rmat(256, avg_degree=4, seed=1)
        assert g.num_vertices == 256
        assert 0 < g.num_edges <= 256 * 4

    def test_rmat_deterministic(self):
        a = generate_rmat(128, 4, seed=7)
        b = generate_rmat(128, 4, seed=7)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.edges, b.edges)

    def test_rmat_seed_changes_graph(self):
        a = generate_rmat(128, 4, seed=1)
        b = generate_rmat(128, 4, seed=2)
        assert not (
            np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.edges, b.edges)
        )

    def test_rmat_power_law_skew(self):
        # R-MAT should concentrate edges on hub vertices far more than a
        # uniform graph does.
        rmat = generate_rmat(1024, 8, seed=3)
        uniform = generate_uniform(1024, 8, seed=3)
        assert rmat.degrees().max() > 2 * uniform.degrees().max()

    def test_no_self_loops_or_duplicates(self):
        g = generate_rmat(256, 8, seed=5)
        for v in range(g.num_vertices):
            neighbors = list(g.neighbors(v))
            assert v not in neighbors
            assert len(neighbors) == len(set(neighbors))

    def test_uniform_shape(self):
        g = generate_uniform(256, 4, seed=1)
        assert g.num_vertices == 256

    def test_rejects_bad_params(self):
        with pytest.raises(WorkloadError):
            generate_rmat(1, 4)
        with pytest.raises(WorkloadError):
            generate_uniform(100, 0)
        with pytest.raises(WorkloadError):
            generate_rmat(64, 4, a=0.7, b=-0.1, c=0.2)


class TestAgainstReference:
    """The sort-based generators and BFS give the arrays of the
    ``np.unique`` / ``searchsorted`` versions, bit for bit."""

    SIZES = [2, 3, 100, 128, 1000, 2048, 12_288]

    @pytest.mark.parametrize("num_vertices", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_rmat_matches_reference(self, num_vertices, seed):
        degree = 12 if num_vertices == 12_288 else 8
        graph = generate_rmat(num_vertices, degree, seed=seed)
        assert_same_graph(graph, reference_rmat(num_vertices, degree, seed=seed))
        for source in (0, num_vertices - 1):
            assert np.array_equal(
                bfs_levels(graph, source), reference_bfs_levels(graph, source)
            )

    @pytest.mark.parametrize(
        "a, b, c",
        # The quadrant is decided by comparisons against these sums, so
        # include zero-width quadrants and thresholds that fall together.
        [(0.45, 0.15, 0.15), (0.25, 0.25, 0.25), (0.5, 0.0, 0.25), (0.0, 0.5, 0.0)],
    )
    def test_rmat_probabilities_match_reference(self, a, b, c):
        graph = generate_rmat(300, 6, seed=3, a=a, b=b, c=c)
        assert_same_graph(graph, reference_rmat(300, 6, seed=3, a=a, b=b, c=c))

    @pytest.mark.parametrize("num_vertices", [2, 5, 129, 1000])
    def test_uniform_matches_reference(self, num_vertices):
        for seed in (0, 4):
            assert_same_graph(
                generate_uniform(num_vertices, 4, seed=seed),
                reference_uniform(num_vertices, 4, seed=seed),
            )


class TestBfsLevels:
    def test_levels_on_tiny_graph(self):
        levels = bfs_levels(tiny_graph(), source=0)
        assert list(levels) == [0, 1, 1, 2]

    def test_unreachable_marked(self):
        offsets = np.array([0, 1, 1, 1])
        edges = np.array([1])
        levels = bfs_levels(CsrGraph(offsets, edges), source=0)
        assert levels[2] == -1

    def test_bad_source_rejected(self):
        with pytest.raises(WorkloadError):
            bfs_levels(tiny_graph(), source=99)

    def test_level_monotonicity(self):
        g = generate_rmat(128, 8, seed=2)
        levels = bfs_levels(g, source=0)
        # No edge may skip a level: level(dst) <= level(src) + 1.
        for v in range(g.num_vertices):
            if levels[v] < 0:
                continue
            for u in g.neighbors(v):
                assert 0 <= levels[u] <= levels[v] + 1
