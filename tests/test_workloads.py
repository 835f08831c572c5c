"""Tests for the GraphBIG-style workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.graph import generate_rmat
from repro.workloads.registry import (
    IRREGULAR_WORKLOADS,
    SCALES,
    build_workload,
    workload_names,
)
from repro.workloads.regular import REGULAR_SPECS, build_regular

GRAPH = generate_rmat(512, 8, seed=0)


@pytest.fixture(params=sorted(IRREGULAR_WORKLOADS))
def irregular_workload(request):
    return IRREGULAR_WORKLOADS[request.param](GRAPH, page_size=4096)


class TestIrregularCommon:
    def test_has_kernels_and_ops(self, irregular_workload):
        assert irregular_workload.kernels
        assert irregular_workload.num_ops > 0

    def test_core_arrays_allocated(self, irregular_workload):
        vas = irregular_workload.address_space
        for name in ("offsets", "edges", "vprop", "status"):
            assert name in vas

    def test_all_accesses_within_footprint(self, irregular_workload):
        valid = irregular_workload.address_space.all_pages()
        assert irregular_workload.touched_pages() <= valid

    def test_marked_irregular(self, irregular_workload):
        assert irregular_workload.irregular

    def test_touches_shared_property_pages(self, irregular_workload):
        # The scattered destination-property traffic must reach the vprop
        # segment from many blocks (the paper's sharing argument).
        vas = irregular_workload.address_space
        vprop_pages = set(vas["vprop"].page_range(vas.page_shift))
        kernel = max(irregular_workload.kernels, key=lambda k: k.num_blocks)
        sharing = [
            bool(block.pages(vas.page_shift) & vprop_pages)
            for block in kernel.blocks
        ]
        assert sum(sharing) >= max(1, len(sharing) // 2)


class TestBfsSpecifics:
    def test_ttc_level_kernel_count_matches_bfs_depth(self):
        from repro.workloads.bfs import build_bfs_ttc
        from repro.workloads.graph import bfs_levels

        workload = build_bfs_ttc(GRAPH, page_size=4096)
        depth = int(bfs_levels(GRAPH, 0).max()) + 1
        assert len(workload.kernels) == depth

    def test_data_driven_grids_shrink_with_frontier(self):
        from repro.workloads.bfs import build_bfs_tf

        workload = build_bfs_tf(GRAPH, page_size=4096)
        first = workload.kernels[0]
        biggest = max(k.num_blocks for k in workload.kernels)
        # Level 0 has a single-source frontier: minimal grid.
        assert first.num_blocks == 1
        assert biggest >= first.num_blocks

    def test_atomic_variant_has_more_ops(self):
        from repro.workloads.bfs import build_bfs_ta, build_bfs_ttc

        ta = build_bfs_ta(GRAPH, page_size=4096)
        ttc = build_bfs_ttc(GRAPH, page_size=4096)
        assert ta.num_ops > ttc.num_ops


class TestAlgorithms:
    def test_gc_rounds_colour_everything(self):
        from repro.workloads.gc import _coloring_rounds

        rounds = _coloring_rounds(GRAPH)
        coloured = set()
        for winners in rounds:
            for v in winners:
                assert v not in coloured
                coloured.add(int(v))
        assert coloured == set(range(GRAPH.num_vertices))

    def test_gc_independent_winners(self):
        from repro.workloads.gc import _coloring_rounds

        rounds = _coloring_rounds(GRAPH)
        first = set(rounds[0].tolist())
        # Round-1 winners must form an independent set (all vertices are
        # uncoloured in round 1): no edge inside the winner set.
        for v in first:
            assert not any(int(u) in first for u in GRAPH.neighbors(v))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gc_rounds_match_the_loop_reference(self, seed):
        """The vectorised rounds equal the per-vertex Jones–Plassmann loop:
        a vertex wins when no uncoloured neighbour, in either edge
        direction, has a higher priority."""
        from repro.workloads.gc import _coloring_rounds

        n = GRAPH.num_vertices
        priority = np.random.default_rng(seed).permutation(n)
        neighbours = [set() for _ in range(n)]
        for v in range(n):
            for u in GRAPH.neighbors(v).tolist():
                neighbours[v].add(u)
                neighbours[u].add(v)
        uncolored = set(range(n))
        want = []
        while uncolored:
            winners = sorted(
                v for v in uncolored
                if all(
                    u not in uncolored or priority[u] <= priority[v]
                    for u in neighbours[v]
                )
            )
            want.append(winners)
            uncolored -= set(winners)
        assert [r.tolist() for r in _coloring_rounds(GRAPH, seed)] == want

    def test_kcore_peeling_removes_low_degree(self):
        from repro.workloads.kcore import _peeling_rounds

        rounds = _peeling_rounds(GRAPH, k=4)
        degrees = GRAPH.degrees()
        if rounds:
            assert all(degrees[v] < 4 for v in rounds[0])

    def test_sssp_rounds_start_at_source(self):
        from repro.workloads.sssp import _sssp_rounds

        rounds = _sssp_rounds(GRAPH, source=0)
        assert list(rounds[0]) == [0]

    def test_pr_iterations_scale_ops(self):
        from repro.workloads.pagerank import build_pagerank

        one = build_pagerank(GRAPH, iterations=1, page_size=4096)
        two = build_pagerank(GRAPH, iterations=2, page_size=4096)
        assert two.num_ops == pytest.approx(2 * one.num_ops, rel=0.01)

    def test_bc_has_forward_and_backward_phases(self):
        from repro.workloads.bc import build_bc

        workload = build_bc(GRAPH, page_size=4096)
        names = [k.name for k in workload.kernels]
        assert any(n.startswith("BC-FWD") for n in names)
        assert any(n.startswith("BC-BWD") for n in names)


class TestRegular:
    def test_all_specs_build(self):
        for name in REGULAR_SPECS:
            workload = build_regular(name, num_blocks=8, page_size=4096)
            assert not workload.irregular
            assert workload.num_ops > 0

    def test_tiles_mostly_private(self):
        workload = build_regular("GM", num_blocks=8, page_size=4096)
        shift = workload.address_space.page_shift
        kernel = workload.kernels[0]
        page_sets = [b.pages(shift) for b in kernel.blocks]
        # GM has no halo: tiles of different blocks share only constants.
        overlap = page_sets[0] & page_sets[4]
        assert len(overlap) <= 1

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            build_regular("NOPE")


class TestRegistry:
    def test_workload_names(self):
        assert len(workload_names("irregular")) == 11
        assert len(workload_names("regular")) == 6
        with pytest.raises(WorkloadError):
            workload_names("weird")

    def test_build_workload_cached(self):
        """One memo entry per workload, however the call is spelled."""
        a = build_workload("KCORE", scale="tiny")
        assert build_workload("KCORE", scale="tiny") is a
        assert build_workload("KCORE", "tiny", 0) is a
        assert build_workload("kcore", scale="tiny", seed=0) is a
        assert a.registry_key == ("KCORE", "tiny", 0)

    def test_scale_sets_page_size_and_hint(self):
        workload = build_workload("KCORE", scale="tiny")
        assert workload.address_space.page_size == SCALES["tiny"].page_size
        assert workload.num_sms_hint == SCALES["tiny"].num_sms

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("FFT", scale="tiny")

    def test_unknown_scale_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("PR", scale="galactic")

    def test_paper_scale_uses_table1_page_size(self):
        assert SCALES["paper"].page_size == 64 * 1024
        assert SCALES["paper"].half_memory_ratio == 0.5
