"""Shared machinery for the GraphBIG-style graph workloads.

Every graph workload lays out the same core arrays in unified memory:

* ``offsets`` — CSR row offsets, 8 B per vertex (+1);
* ``edges`` — CSR adjacency, 8 B per edge (the dominant footprint);
* ``vprop`` — per-vertex property struct, 64 B per vertex, standing in for
  GraphBIG's property objects (level/color/rank/degree live here).  The
  scattered destination-property accesses into this array are what makes
  these workloads *irregular*;

plus per-algorithm extras (frontier queues, edge weights).

Trace generators run the actual algorithm on the host and emit, per warp,
the coalesced accesses the SIMT execution would issue.  Two execution
styles recur across GraphBIG implementations:

* *thread-centric* (TC): thread ``t`` owns vertex ``t``; a warp's threads
  expand their adjacency lists in lockstep, so step ``j`` of the warp
  gathers edge ``j`` of every active lane — divergent lanes idle.
* *warp-centric* (WC): a warp processes its vertices one at a time; the 32
  lanes read 32 *consecutive* edges per step, so edge traffic coalesces
  but destination-property traffic stays scattered.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace
from repro.workloads.graph import CsrGraph
from repro.workloads.trace import (
    KernelTrace,
    WarpOpsBuilder,
    WarpTrace,
    Workload,
    cumulative_offsets,
    group_warps_into_blocks,
)

#: Bytes per vertex-property record (GraphBIG property structs).
VPROP_BYTES = 64
#: Default CUDA block size used by GraphBIG kernels.
THREADS_PER_BLOCK = 256


class GraphWorkloadBuilder:
    """Base class: array layout + warp/block plumbing for one graph."""

    def __init__(
        self,
        graph: CsrGraph,
        page_size: int = 64 * 1024,
        threads_per_block: int = THREADS_PER_BLOCK,
        registers_per_thread: int = 56,
    ) -> None:
        if threads_per_block % WARP_SIZE:
            raise WorkloadError("threads_per_block must be a multiple of 32")
        self.graph = graph
        self.vas = AddressSpace(page_size)
        self.threads_per_block = threads_per_block
        self.warps_per_block = threads_per_block // WARP_SIZE
        self.resources = KernelResources(
            threads_per_block=threads_per_block,
            registers_per_thread=registers_per_thread,
        )
        self.offsets = self.vas.allocate("offsets", graph.num_vertices + 1, 8)
        self.edges = self.vas.allocate("edges", max(1, graph.num_edges), 8)
        self.vprop = self.vas.allocate("vprop", graph.num_vertices, VPROP_BYTES)
        # Compact per-vertex status word (level/colour/flag) checked by the
        # all-vertex scans of topological kernels; the fat property record
        # is only touched for *active* vertices.  Keeping these separate is
        # what GraphBIG's kernels do, and it is what gives the workloads a
        # skewed page-popularity profile instead of a uniform whole-
        # footprint rescan per kernel.
        self.status = self.vas.allocate("status", graph.num_vertices, 8)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def vprop_addrs(self, vertices: Sequence[int]) -> list[int]:
        return self.vprop.addrs(vertices).tolist()

    def offsets_addrs(self, vertices: Sequence[int]) -> np.ndarray:
        """``offsets[v]`` and ``offsets[v + 1]``: one row per vertex."""
        v = np.asarray(vertices, dtype=np.int64)[:, None]
        return self.offsets.addrs(v + (0, 1))

    def _lanes(
        self, edge_index: np.ndarray, touch_dst: bool, extra_dst_addrs
    ) -> np.ndarray:
        """One row per edge: its edge entry, then (``touch_dst``) the
        destination's property record — which ``dst_store`` writes — and
        the ``extra_dst_addrs(edge_index, dst)`` columns, all dependent.
        Columns lie in distinct segments, so positional marks are the
        by-value ones."""
        columns = [self.edges.addrs(edge_index)]
        if touch_dst:
            dst = self.graph.edges[edge_index]
            columns.append(self.vprop.addrs(dst))
            if extra_dst_addrs is not None:
                columns.extend(extra_dst_addrs(edge_index, dst))
        return np.column_stack(columns)

    # ------------------------------------------------------------------
    # Warp-level emitters
    # ------------------------------------------------------------------
    def emit_status_check(self, ops: WarpOpsBuilder, vertices: Sequence[int]) -> None:
        """Every lane reads its vertex's compact status word (coalesced)."""
        ops.access(self.status.addrs(vertices))

    def emit_active_properties(
        self, ops: WarpOpsBuilder, active: Sequence[int], is_store: bool = False
    ) -> None:
        """Active lanes read (or update) their full property records."""
        ops.access(self.vprop_addrs(active), is_store=is_store)

    def emit_tc_expansion(
        self,
        ops: WarpOpsBuilder,
        active: Sequence[int],
        touch_dst: bool = True,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Thread-centric lockstep expansion of ``active`` lanes.

        Step ``j`` gathers edge ``j`` of every active lane that still has
        neighbours, plus the destination property records, lane by lane.
        ``extra_dst_addrs(edge_index, dst)`` maps arrays of edge indices
        and their destinations to further per-edge address columns.
        """
        if not len(active):
            return
        ops.access(self.offsets_addrs(active).ravel())
        v = np.asarray(active, dtype=np.int64)
        start, end = self.graph.offsets[v], self.graph.offsets[v + 1]
        # (step, lane) grid: lane l's edge j sits in row j, column l.
        grid = start + np.arange((end - start).max())[:, None]
        live = grid < end
        lanes = self._lanes(grid[live], touch_dst, extra_dst_addrs)
        width = lanes.shape[1]
        column = np.tile(np.arange(width), len(lanes))
        ops.access_many(
            lanes.ravel().tolist(),
            (np.cumsum(live.sum(axis=1)) * width).tolist(),
            (dst_store & (column == 1)).tolist(),
            (column > 0).tolist(),
        )

    def emit_wc_expansion(
        self,
        ops: WarpOpsBuilder,
        active: Sequence[int],
        touch_dst: bool = True,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Warp-centric expansion: 32 consecutive edges per step.

        Each active vertex reads its offsets pair, then its edges
        ``WARP_SIZE`` at a time; a step reads its lanes' edge entries
        first (they coalesce), then each lane's destination records.
        """
        if not len(active):
            return
        v = np.asarray(active, dtype=np.int64)
        lanes = self._lanes(self.graph.edge_indices(v), touch_dst, extra_dst_addrs)
        edge = lanes[:, 0].tolist()
        found = lanes[:, 1:].ravel().tolist()
        rest = lanes.shape[1] - 1  # addresses per lane after its edge entry
        written = ([dst_store] + [False] * rest)[:rest]  # the property record
        addresses: list[int] = []
        op_end: list[int] = []
        store: list[bool] = []
        dependent: list[bool] = []
        degree = self.graph.offsets[v + 1] - self.graph.offsets[v]
        bounds = cumulative_offsets(degree).tolist()
        pairs = self.offsets_addrs(active).tolist()
        for pair, lo, hi in zip(pairs, bounds, bounds[1:]):
            addresses += pair
            op_end.append(len(addresses))
            store += (False, False)
            dependent += (False, False)
            for c0 in range(lo, hi, WARP_SIZE):
                c1 = min(c0 + WARP_SIZE, hi)
                m = c1 - c0
                addresses += edge[c0:c1]
                addresses += found[c0 * rest : c1 * rest]
                op_end.append(len(addresses))
                store += [False] * m + written * m
                dependent += [False] * m + [True] * (m * rest)
        ops.access_many(addresses, op_end, store, dependent)

    # ------------------------------------------------------------------
    # Kernel assembly
    # ------------------------------------------------------------------
    def topological_kernel(
        self, name: str, per_warp_emit
    ) -> KernelTrace:
        """One kernel scanning all vertices thread-centrically.

        ``per_warp_emit(ops, vertices)`` fills one warp's op list; warps
        cover 32 consecutive vertices each.
        """
        warp_ops: list[WarpTrace] = []
        n = self.graph.num_vertices
        for start in range(0, n, WARP_SIZE):
            vertices = range(start, min(start + WARP_SIZE, n))
            ops = WarpOpsBuilder()
            per_warp_emit(ops, list(vertices))
            warp_ops.append(ops.build())
        return self._kernel(name, warp_ops)

    def data_driven_kernel(
        self, name: str, work_items: Sequence[int], per_warp_emit
    ) -> KernelTrace:
        """One kernel over an explicit work queue (frontier)."""
        warp_ops: list[WarpTrace] = []
        for start in range(0, len(work_items), WARP_SIZE):
            chunk = [int(v) for v in work_items[start : start + WARP_SIZE]]
            ops = WarpOpsBuilder()
            per_warp_emit(ops, chunk, start)
            warp_ops.append(ops.build())
        if not warp_ops:
            warp_ops.append(WarpOpsBuilder().build())
        return self._kernel(name, warp_ops)

    def _kernel(self, name: str, warp_ops: list[WarpTrace]) -> KernelTrace:
        blocks = group_warps_into_blocks(warp_ops, self.warps_per_block)
        return KernelTrace(name, blocks, self.resources)

    def workload(self, name: str, kernels: list[KernelTrace]) -> Workload:
        kernels = [k for k in kernels if k.num_ops > 0]
        if not kernels:
            raise WorkloadError(f"workload {name!r} generated no work")
        return Workload(name, self.vas, kernels, irregular=True)
