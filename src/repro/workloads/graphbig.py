"""Shared machinery for the GraphBIG-style graph workloads.

Every graph workload lays out the same core arrays in unified memory:

* ``offsets`` — CSR row offsets, 8 B per vertex (+1);
* ``edges`` — CSR adjacency, 8 B per edge (the dominant footprint);
* ``vprop`` — per-vertex property struct, 64 B per vertex, standing in for
  GraphBIG's property objects (level/color/rank/degree live here).  The
  scattered destination-property accesses into this array are what makes
  these workloads *irregular*;

plus per-algorithm extras (frontier queues, edge weights).

Trace generators run the actual algorithm on the host and emit, for
every warp of a launch at once, the coalesced accesses the SIMT
execution would issue (through one
:class:`~repro.workloads.trace.KernelBuilder` per launch).  Lane ``p``
of a launch runs in warp ``p // 32``; the emitters take each lane's warp
and vertex.  Two execution styles recur across GraphBIG implementations:

* *thread-centric* (TC): thread ``t`` owns vertex ``t``; a warp's threads
  expand their adjacency lists in lockstep, so step ``j`` of the warp
  gathers edge ``j`` of every active lane — divergent lanes idle.
* *warp-centric* (WC): a warp processes its vertices one at a time; the 32
  lanes read 32 *consecutive* edges per step, so edge traffic coalesces
  but destination-property traffic stays scattered.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.gpu.occupancy import KernelResources
from repro.vm.address_space import AddressSpace, Segment
from repro.workloads.graph import CsrGraph
from repro.workloads.trace import (
    KernelBuilder,
    KernelTrace,
    Workload,
    cumulative_offsets,
    run_ranks,
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
    def offsets_addrs(self, vertices: np.ndarray) -> np.ndarray:
        """``offsets[v]`` and ``offsets[v + 1]``: one row per vertex."""
        return self.offsets.addrs(vertices[:, None] + (0, 1))

    def _lanes(self, edge_index: np.ndarray, extra_dst_addrs) -> np.ndarray:
        """One row per edge: its edge entry, the destination's property
        record — which ``dst_store`` writes — and the
        ``extra_dst_addrs(edge_index, dst)`` columns, all dependent.
        Columns lie in distinct segments, so positional marks are the
        by-value ones."""
        dst = self.graph.edges[edge_index]
        columns = [self.edges.addrs(edge_index), self.vprop.addrs(dst)]
        if extra_dst_addrs is not None:
            columns.extend(extra_dst_addrs(edge_index, dst))
        return np.column_stack(columns)

    # ------------------------------------------------------------------
    # Emitters: ``warp`` and ``vertices`` give each lane's warp (in
    # ascending order) and vertex; each emits one stream for all warps.
    # ------------------------------------------------------------------
    def emit_active_properties(
        self, ops: KernelBuilder, warp, vertices, is_store: bool = False
    ) -> None:
        """The lanes read (or update) their full property records."""
        ops.warp_ops(warp, self.vprop.addrs(vertices), store=is_store)

    def emit_tc_expansion(
        self,
        ops: KernelBuilder,
        warp: np.ndarray,
        vertices: np.ndarray,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Thread-centric lockstep expansion of the lanes' vertices.

        Each warp with lanes reads their offsets pairs; then its step
        ``j`` gathers edge ``j`` of every lane that still has neighbours,
        plus the destination property records, lane by lane.
        ``extra_dst_addrs(edge_index, dst)`` maps arrays of edge indices
        and their destinations to further per-edge address columns.
        """
        ops.warp_ops(np.repeat(warp, 2), self.offsets_addrs(vertices).ravel())
        degree = self.graph.degrees()[vertices]
        edge = self.graph.edge_indices(vertices)
        lane = np.repeat(np.arange(vertices.size), degree)
        step = run_ranks(degree)
        order = np.lexsort((lane, step, warp[lane]))
        rows = self._lanes(edge[order], extra_dst_addrs)
        op_warp, op_step = warp[lane][order], step[order]
        first = np.flatnonzero(
            np.diff(op_warp, prepend=-1) | np.diff(op_step, prepend=-1)
        )
        width = rows.shape[1]
        column = np.tile(np.arange(width), len(rows))
        ops.access(
            op_warp[first],
            np.diff(first, append=len(rows)) * width,
            rows,
            dst_store & (column == 1),
            column > 0,
        )

    def emit_wc_expansion(
        self,
        ops: KernelBuilder,
        warp: np.ndarray,
        vertices: np.ndarray,
        dst_store: bool = False,
        extra_dst_addrs=None,
    ) -> None:
        """Warp-centric expansion: 32 consecutive edges per step.

        Each lane's vertex in turn reads its offsets pair, then its edges
        ``WARP_SIZE`` at a time; a step reads its lanes' edge entries
        first (they coalesce), then each lane's destination records.
        """
        degree = self.graph.degrees()[vertices]
        rows = self._lanes(self.graph.edge_indices(vertices), extra_dst_addrs)
        width = rows.shape[1]
        # Per vertex: op 0 is the offsets pair, op 1 + c its chunk c.
        ops_per_vertex = 1 + -(-degree // WARP_SIZE)
        first_op = cumulative_offsets(ops_per_vertex)[:-1]
        vertex = np.repeat(np.arange(vertices.size), ops_per_vertex)
        k = run_ranks(ops_per_vertex)
        chunk_edges = np.minimum(WARP_SIZE, degree[vertex] - WARP_SIZE * (k - 1))
        lengths = np.where(k == 0, 2, chunk_edges * width)
        op_start = cumulative_offsets(lengths)
        addresses = np.empty(op_start[-1], dtype=np.int64)
        pair = op_start[first_op][:, None] + (0, 1)
        addresses[pair] = self.offsets_addrs(vertices)
        # Edge e of its vertex sits in chunk e // 32, lane e % 32.
        local = run_ranks(degree)
        op = np.repeat(first_op, degree) + 1 + local // WARP_SIZE
        lane = local % WARP_SIZE
        addresses[op_start[op] + lane] = rows[:, 0]
        rest = (op_start[op] + lengths[op] // width + lane * (width - 1))[:, None]
        rest = rest + np.arange(width - 1)
        addresses[rest] = rows[:, 1:]
        store = np.zeros(addresses.size, dtype=bool)
        store[rest[:, 0]] = dst_store  # the property record
        dependent = np.zeros(addresses.size, dtype=bool)
        dependent[rest] = True
        ops.access(warp[vertex], lengths, addresses, store, dependent)

    # ------------------------------------------------------------------
    # Kernel assembly
    # ------------------------------------------------------------------
    def topological_kernel(self, name: str) -> KernelBuilder:
        """A launch scanning all vertices thread-centrically: lane ``v``
        runs vertex ``v``, and every lane first reads its vertex's compact
        status word (coalesced)."""
        n = self.graph.num_vertices
        ops = KernelBuilder(name, -(-n // WARP_SIZE), self.resources)
        ops.warp_ops(np.arange(n) // WARP_SIZE, self.status.addrs(np.arange(n)))
        return ops

    def data_driven_kernel(
        self, name: str, queue: Segment, work_items: np.ndarray
    ) -> KernelBuilder:
        """A launch over an explicit work queue (frontier): lane ``p``
        runs ``work_items[p]`` and first reads its ``queue`` slot."""
        lanes = np.arange(len(work_items))
        ops = KernelBuilder(name, -(-lanes.size // WARP_SIZE), self.resources)
        ops.warp_ops(lanes // WARP_SIZE, queue.addrs(lanes))
        return ops

    def workload(self, name: str, kernels: list[KernelTrace]) -> Workload:
        kernels = [k for k in kernels if k.num_ops > 0]
        if not kernels:
            raise WorkloadError(f"workload {name!r} generated no work")
        return Workload(name, self.vas, kernels, irregular=True)
