"""Raw-column identity against the per-warp trace oracle.

``tests/golden/traces.json`` hashes each op's derived, sorted-unique
pages and lines, so it cannot see the order of addresses inside an op
or the raw ``store``/``dependent`` masks.  These tests compare all seven
raw columns of every kernel, byte for byte, with the per-warp
reference emitters of :mod:`tests.trace_oracle`: for every registry
workload at ``tiny`` and on hand-built graphs that reach the emitters'
edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.graph import CsrGraph
from repro.workloads.registry import (
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    SCALES,
    build_workload,
)
from repro.workloads.regular import build_regular
from tests.trace_oracle import COLUMNS, oracle_kernels, oracle_regular


def _csr(adjacency: dict[int, list[int]], n: int) -> CsrGraph:
    degree = [len(adjacency.get(v, ())) for v in range(n)]
    edges = [u for v in range(n) for u in adjacency.get(v, ())]
    offsets = np.concatenate(([0], np.cumsum(degree)))
    return CsrGraph(offsets, np.array(edges, dtype=np.int64))


def _ragged() -> CsrGraph:
    """70 vertices (``n % 32 != 0``).  From source 0, level 1 holds
    active zero-degree lanes and vertex 2 with degree 72 (three
    warp-centric chunks, duplicate discoveries); level 2 is vertices
    32..63, so warp 1's active lanes all have degree 0."""
    adjacency = {
        0: [*range(1, 32), *range(64, 70)],
        2: [*range(70), 40, 41],
        3: [40, 32],
    }
    for v in range(5, 32, 2):
        adjacency[v] = [v + 1]
    adjacency.update({64: [0, 65, 2], 66: [67], 67: [2], 68: [69, 68]})
    return _csr(adjacency, 70)


def _isolated_source() -> CsrGraph:
    """The source has no out-edges: one level, nothing discovered."""
    return _csr({1: [0, 2], 2: [3], 3: [1], 39: [0]}, 40)


def _triangle() -> CsrGraph:
    """Three vertices, every degree 2: one partial warp, and KCORE
    peels nothing (its status-only kernel)."""
    return _csr({0: [1, 2], 1: [0, 2], 2: [0, 1]}, 3)


GRAPHS = {
    "ragged": _ragged(),
    "isolated-source": _isolated_source(),
    "triangle": _triangle(),
}


def assert_same_columns(workload, expected) -> None:
    assert [k.name for k in workload.kernels] == [name for name, _ in expected]
    for kernel, (_, columns) in zip(workload.kernels, expected):
        for column in COLUMNS:
            got, want = getattr(kernel, column), columns[column]
            assert got.dtype == want.dtype, (kernel.name, column)
            assert got.tobytes() == want.tobytes(), (kernel.name, column)


@pytest.mark.parametrize("name", sorted(IRREGULAR_WORKLOADS))
def test_registry_tiny_matches_oracle(name):
    workload = build_workload(name, scale="tiny", seed=0)
    assert_same_columns(workload, oracle_kernels(workload, SCALES["tiny"].graph(0)))


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(IRREGULAR_WORKLOADS))
def test_hand_graph_matches_oracle(name, graph):
    workload = IRREGULAR_WORKLOADS[name](GRAPHS[graph], page_size=4096)
    assert_same_columns(workload, oracle_kernels(workload, GRAPHS[graph]))


@pytest.mark.parametrize("name", REGULAR_WORKLOADS)
def test_regular_matches_oracle(name):
    workload = build_regular(name, num_blocks=5, page_size=4096)
    assert_same_columns(workload, oracle_regular(workload, num_blocks=5))


def test_hand_graphs_reach_the_edge_cases():
    """The cases the hand graphs exist for are really in their traces."""
    bfs_ta = IRREGULAR_WORKLOADS["BFS-TA"](GRAPHS["ragged"], page_size=4096)
    assert any((k.compute >= 16).any() for k in bfs_ta.kernels)
    twc = IRREGULAR_WORKLOADS["BFS-TWC"](GRAPHS["ragged"], page_size=4096)
    # Level 1: vertex 2's offsets-pair op, then chunks of 32, 32 and 8
    # edges (two addresses each).
    lengths = np.diff(twc.kernels[1].op_end, prepend=0).tolist()
    assert any(lengths[i : i + 4] == [2, 64, 64, 16] for i in range(len(lengths)))
    isolated = IRREGULAR_WORKLOADS["BFS-TF"](GRAPHS["isolated-source"], page_size=4096)
    assert len(isolated.kernels) == 1
