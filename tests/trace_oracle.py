"""Per-warp reference emitters: the trace oracle for the kernel builder.

Every trace generator in :mod:`repro.workloads` emits a kernel's ops for
all warps at once through :class:`~repro.workloads.trace.KernelBuilder`.
This module keeps the older formulation as an independent reference: a
warp at a time, through a per-warp op builder, with one Python callback
per warp.  :func:`oracle_kernels` rebuilds a generated workload this way
over the workload's own address space (so segment bases agree) and the
same host algorithms, and returns each kernel's seven raw columns.
``tests/test_trace_oracle.py`` asserts they equal the generated ones
byte for byte, which the trace golden (derived, sorted-unique pages and
lines per op) cannot see.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.config import WARP_SIZE
from repro.workloads.gc import _coloring_rounds
from repro.workloads.graph import CsrGraph, bfs_levels
from repro.workloads.kcore import _peeling_rounds
from repro.workloads.regular import REGULAR_SPECS
from repro.workloads.sssp import _sssp_rounds
from repro.workloads.trace import DEFAULT_COMPUTE_CYCLES, Workload, cumulative_offsets

#: The raw columns of a kernel trace, in a fixed order.
COLUMNS = (
    "addresses",
    "op_end",
    "compute",
    "store",
    "dependent",
    "warp_start",
    "block_start",
)


class WarpTrace(NamedTuple):
    addresses: np.ndarray
    op_end: np.ndarray
    compute: np.ndarray
    store: np.ndarray
    dependent: np.ndarray


def concat(warps: Sequence[WarpTrace]) -> WarpTrace:
    if not warps:
        return WarpOpsBuilder().build()
    addresses, op_end, compute, store, dependent = map(np.concatenate, zip(*warps))
    op_end += np.repeat(
        cumulative_offsets([len(w.addresses) for w in warps])[:-1],
        [len(w.compute) for w in warps],
    )
    return WarpTrace(addresses, op_end, compute, store, dependent)


class WarpOpsBuilder:
    """One warp's ops on flat lists; op ``k`` of a warp gets ``k % 5``
    cycles of jitter, pure-compute ops none."""

    def __init__(self, compute_cycles: int = DEFAULT_COMPUTE_CYCLES) -> None:
        self.compute_cycles = compute_cycles
        self._addresses: list[int] = []
        self._op_end: list[int] = []
        self._compute: list[int] = []
        self._store: list[bool] = []
        self._dependent: list[bool] = []

    def access(
        self,
        addresses: Iterable[int],
        compute: int | None = None,
        is_store: bool = False,
        store_addresses: Iterable[int] | None = None,
        dependent_addresses: Iterable[int] | None = None,
    ) -> None:
        is_array = isinstance(addresses, np.ndarray)
        addrs = addresses.tolist() if is_array else list(addresses)
        if not addrs:
            return
        if store_addresses is None:
            store = [is_store] * len(addrs)
        else:
            stores = set(store_addresses)
            if not stores.issubset(addrs):
                raise WorkloadError("store addresses must be a subset of the access")
            store = [a in stores for a in addrs]
        found = set(dependent_addresses or ())
        dependent = [a in found for a in addrs] if found else [False] * len(addrs)
        self.access_many(addrs, [len(addrs)], store, dependent, compute)

    def access_many(self, addresses, op_end, store, dependent, compute=None) -> None:
        compute = self.compute_cycles if compute is None else compute
        first = len(self._compute)
        self._compute += [compute + k % 5 for k in range(first, first + len(op_end))]
        base = len(self._addresses)
        self._op_end += [base + end for end in op_end]
        self._addresses += addresses
        self._store += store
        self._dependent += dependent

    def compute(self, cycles: int) -> None:
        if cycles > 0:
            self._compute.append(cycles)
            self._op_end.append(len(self._addresses))

    def build(self) -> WarpTrace:
        return WarpTrace(
            np.array(self._addresses, dtype=np.int64),
            np.array(self._op_end, dtype=np.int64),
            np.array(self._compute, dtype=np.int64),
            np.array(self._store, dtype=bool),
            np.array(self._dependent, dtype=bool),
        )


def kernel_columns(warps: Sequence[WarpTrace], warps_per_block: int) -> dict:
    """The seven raw columns of a kernel made of ``warps``, in order."""
    columns = dict(zip(COLUMNS, concat(warps)))
    columns["warp_start"] = cumulative_offsets([len(w.compute) for w in warps])
    sizes = [
        len(warps[start : start + warps_per_block])
        for start in range(0, len(warps), warps_per_block)
    ]
    columns["block_start"] = cumulative_offsets(sizes)
    return columns


class _Graph:
    """The per-warp emitters over a generated workload's segments."""

    def __init__(self, graph: CsrGraph, workload: Workload) -> None:
        self.graph = graph
        self.vas = workload.address_space
        self.warps_per_block = workload.kernels[0].resources.warps_per_block
        for name in ("offsets", "edges", "vprop", "status"):
            setattr(self, name, self.vas[name])
        self.kernels: list[tuple[str, dict]] = []

    def vprop_addrs(self, vertices) -> list[int]:
        return self.vprop.addrs(vertices).tolist()

    def offsets_addrs(self, vertices) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.int64)[:, None]
        return self.offsets.addrs(v + (0, 1))

    def _lanes(self, edge_index, touch_dst, extra_dst_addrs) -> np.ndarray:
        columns = [self.edges.addrs(edge_index)]
        if touch_dst:
            dst = self.graph.edges[edge_index]
            columns.append(self.vprop.addrs(dst))
            if extra_dst_addrs is not None:
                columns.extend(extra_dst_addrs(edge_index, dst))
        return np.column_stack(columns)

    def emit_status_check(self, ops, vertices) -> None:
        ops.access(self.status.addrs(vertices))

    def emit_active_properties(self, ops, active, is_store=False) -> None:
        ops.access(self.vprop_addrs(active), is_store=is_store)

    def emit_tc_expansion(
        self, ops, active, touch_dst=True, dst_store=False, extra_dst_addrs=None
    ) -> None:
        if not len(active):
            return
        ops.access(self.offsets_addrs(active).ravel())
        v = np.asarray(active, dtype=np.int64)
        start, end = self.graph.offsets[v], self.graph.offsets[v + 1]
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
        self, ops, active, touch_dst=True, dst_store=False, extra_dst_addrs=None
    ) -> None:
        if not len(active):
            return
        v = np.asarray(active, dtype=np.int64)
        lanes = self._lanes(self.graph.edge_indices(v), touch_dst, extra_dst_addrs)
        edge = lanes[:, 0].tolist()
        found = lanes[:, 1:].ravel().tolist()
        rest = lanes.shape[1] - 1
        written = ([dst_store] + [False] * rest)[:rest]
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

    def topological_kernel(self, name: str, per_warp_emit) -> None:
        warps = []
        n = self.graph.num_vertices
        for start in range(0, n, WARP_SIZE):
            ops = WarpOpsBuilder()
            per_warp_emit(ops, list(range(start, min(start + WARP_SIZE, n))))
            warps.append(ops.build())
        self._kernel(name, warps)

    def data_driven_kernel(self, name: str, work_items, per_warp_emit) -> None:
        warps = []
        for start in range(0, len(work_items), WARP_SIZE):
            chunk = [int(v) for v in work_items[start : start + WARP_SIZE]]
            ops = WarpOpsBuilder()
            per_warp_emit(ops, chunk, start)
            warps.append(ops.build())
        if not warps:
            warps.append(WarpOpsBuilder().build())
        self._kernel(name, warps)

    def _kernel(self, name: str, warps) -> None:
        columns = kernel_columns(warps, self.warps_per_block)
        if len(columns["compute"]):
            self.kernels.append((name, columns))


# ----------------------------------------------------------------------
# The generators, a warp at a time.
# ----------------------------------------------------------------------
def _bfs(g: _Graph, name: str, source: int = 0) -> None:
    levels = bfs_levels(g.graph, source)
    reachable = levels[levels >= 0]
    max_level = int(reachable.max()) if reachable.size else 0
    frontier_q, next_q = g.vas["frontier_q"], g.vas["next_q"]
    warp_centric = name in ("BFS-TWC", "BFS-DWC")
    expand = g.emit_wc_expansion if warp_centric else g.emit_tc_expansion

    def discoveries(vertices, level):
        reached = g.graph.edges[g.graph.edge_indices(vertices)]
        reached = reached[levels[reached] == level + 1]
        _, first = np.unique(reached, return_index=True)
        return reached[np.sort(first)].tolist()

    for level in range(max_level + 1):
        frontier = np.flatnonzero(levels == level)
        if not frontier.size:
            break
        if name in ("BFS-TF", "BFS-DWC"):

            def emit(ops, chunk, queue_offset, _level=level):
                ops.access(frontier_q.addrs(np.arange(len(chunk)) + queue_offset))
                g.emit_active_properties(ops, chunk)
                expand(ops, chunk, touch_dst=True, dst_store=True)
                found = discoveries(chunk, _level)
                ops.access(
                    next_q.addrs(np.arange(len(found)) % g.graph.num_vertices),
                    is_store=True,
                )

            g.data_driven_kernel(f"{name}-L{level}", list(frontier), emit)
            continue
        active_set = set(int(v) for v in frontier)

        def emit(ops, vertices, _active=active_set, _level=level):
            g.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            g.emit_active_properties(ops, active)
            expand(ops, active, touch_dst=True, dst_store=True)
            if name == "BFS-TA":
                found = discoveries(active, _level)
                ops.access(g.vprop_addrs(found), compute=16, is_store=True)

        g.topological_kernel(f"{name}-L{level}", emit)


def _bc(g: _Graph, source: int = 0) -> None:
    sigma, delta = g.vas["sigma"], g.vas["delta"]
    levels = bfs_levels(g.graph, source)
    reachable = levels[levels >= 0]
    max_level = int(reachable.max()) if reachable.size else 0
    for level in range(max_level + 1):
        active_set = set(np.flatnonzero(levels == level).tolist())
        if not active_set:
            break

        def emit_fwd(ops, vertices, _active=active_set):
            g.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            g.emit_active_properties(ops, active)
            g.emit_tc_expansion(
                ops, active, touch_dst=True, dst_store=True,
                extra_dst_addrs=lambda _e, dst: [sigma.addrs(dst)],
            )

        g.topological_kernel(f"BC-FWD-L{level}", emit_fwd)
    for level in range(max_level, -1, -1):
        active_set = set(np.flatnonzero(levels == level).tolist())
        if not active_set:
            continue

        def emit_bwd(ops, vertices, _active=active_set):
            g.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _active]
            if not active:
                return
            g.emit_active_properties(ops, active)
            g.emit_tc_expansion(
                ops, active, touch_dst=True,
                extra_dst_addrs=lambda _e, dst: [delta.addrs(dst), sigma.addrs(dst)],
            )
            ops.access(
                delta.addrs(active).tolist() + g.vprop_addrs(active), is_store=True
            )

        g.topological_kernel(f"BC-BWD-L{level}", emit_bwd)


def _gc(g: _Graph, name: str, seed: int = 7, max_rounds: int = 8) -> None:
    worklist_q = g.vas["worklist"]
    colored = np.zeros(g.graph.num_vertices, dtype=bool)
    for rnd, winners in enumerate(_coloring_rounds(g.graph, seed)[:max_rounds]):
        if name == "GC-TTC":
            uncolored_set = set(np.flatnonzero(~colored).tolist())

            def emit(ops, vertices, _uncolored=uncolored_set):
                g.emit_status_check(ops, vertices)
                active = [v for v in vertices if v in _uncolored]
                if not active:
                    return
                g.emit_active_properties(ops, active)
                g.emit_tc_expansion(ops, active, touch_dst=True)
                ops.access(g.vprop_addrs(active), is_store=True)

            g.topological_kernel(f"GC-TTC-R{rnd}", emit)
        else:

            def emit(ops, chunk, queue_offset):
                ops.access(worklist_q.addrs(np.arange(len(chunk)) + queue_offset))
                g.emit_active_properties(ops, chunk)
                g.emit_tc_expansion(ops, chunk, touch_dst=True)
                ops.access(g.vprop_addrs(chunk), is_store=True)

            g.data_driven_kernel(
                f"GC-DTC-R{rnd}", np.flatnonzero(~colored).tolist(), emit
            )
        colored[winners] = True


def _kcore(g: _Graph, max_rounds: int = 8) -> None:
    graph = g.graph
    k = max(2, int(graph.num_edges / max(1, graph.num_vertices)))
    rounds = _peeling_rounds(graph, k)[:max_rounds]
    for rnd, doomed in enumerate(rounds):
        doomed_set = set(doomed.tolist())

        def emit(ops, vertices, _doomed=doomed_set):
            g.emit_status_check(ops, vertices)
            removed = [v for v in vertices if v in _doomed]
            if not removed:
                return
            g.emit_active_properties(ops, removed, is_store=True)
            g.emit_tc_expansion(ops, removed, touch_dst=True, dst_store=True)

        g.topological_kernel(f"KCORE-R{rnd}", emit)
    if not rounds:
        g.topological_kernel("KCORE-R0", g.emit_status_check)


def _pagerank(g: _Graph, iterations: int = 2) -> None:
    rank_next = g.vas["rank_next"]
    for it in range(iterations):

        def emit(ops, vertices):
            g.emit_status_check(ops, vertices)
            g.emit_tc_expansion(
                ops,
                [v for v in vertices if g.graph.degree(v) > 0],
                touch_dst=True,
                dst_store=True,
                extra_dst_addrs=lambda _e, dst: [rank_next.addrs(dst)],
            )
            ops.access(g.vprop_addrs(vertices), is_store=True)

        g.topological_kernel(f"PR-IT{it}", emit)


def _sssp(g: _Graph, source: int = 0, max_rounds: int = 10) -> None:
    weights = g.vas["weights"]
    for rnd, frontier in enumerate(_sssp_rounds(g.graph, source)[:max_rounds]):
        frontier_set = set(frontier.tolist())

        def emit(ops, vertices, _frontier=frontier_set):
            g.emit_status_check(ops, vertices)
            active = [v for v in vertices if v in _frontier]
            if not active:
                return
            g.emit_active_properties(ops, active)
            g.emit_wc_expansion(
                ops, active, touch_dst=True, dst_store=True,
                extra_dst_addrs=lambda edge_index, _dst: [weights.addrs(edge_index)],
            )

        g.topological_kernel(f"SSSP-TWC-R{rnd}", emit)


def oracle_kernels(workload: Workload, graph: CsrGraph) -> list[tuple[str, dict]]:
    """``(name, columns)`` per kernel of graph workload ``workload``
    (built over ``graph`` with default parameters), emitted a warp at a
    time."""
    g = _Graph(graph, workload)
    name = workload.name
    if name.startswith("BFS-"):
        _bfs(g, name)
    elif name == "BC":
        _bc(g)
    elif name.startswith("GC-"):
        _gc(g, name)
    elif name == "KCORE":
        _kcore(g)
    elif name == "PR":
        _pagerank(g)
    elif name == "SSSP-TWC":
        _sssp(g)
    else:
        raise ValueError(f"no oracle for {name!r}")
    return g.kernels


def oracle_regular(workload: Workload, num_blocks: int) -> list[tuple[str, dict]]:
    """``(name, columns)`` of regular workload ``workload`` (built with
    ``num_blocks`` blocks), emitted a warp at a time."""
    spec = REGULAR_SPECS[workload.name]
    vas = workload.address_space
    data, out, constants = vas["data"], vas["out"], vas["constants"]
    warps_per_block = workload.kernels[0].resources.warps_per_block
    elems_per_tile = spec.tile_bytes // 8
    halo = int(elems_per_tile * spec.halo_fraction)
    warps = []
    for b in range(num_blocks):
        tile_start = b * elems_per_tile
        lo = max(0, tile_start - halo)
        hi = min(elems_per_tile * num_blocks, tile_start + elems_per_tile + halo)
        per_warp = max(1, (hi - lo) // warps_per_block)
        for w in range(warps_per_block):
            ops = WarpOpsBuilder()
            ops.access([constants.addr_unchecked(w % 1024)])
            w_lo = lo + w * per_warp
            w_hi = min(hi, w_lo + per_warp)
            tile = data.addrs(range(w_lo, w_hi)).tolist()
            written = out.addrs(range(w_lo, min(w_lo + WARP_SIZE, w_hi))).tolist()
            sweep = tile + written
            ends = [*range(WARP_SIZE, len(tile), WARP_SIZE), len(tile), len(sweep)]
            store = [False] * len(tile) + [True] * len(written)
            for _ in range(spec.sweeps if tile else 0):
                ops.access_many(sweep, ends, store, [False] * len(sweep))
            warps.append(ops.build())
    return [(spec.name, kernel_columns(warps, warps_per_block))]
