"""Workload registry and scale presets.

The 11 irregular workloads are exactly the paper's Table-less Section 5.1
list; the 6 regular workloads back Figure 1's top panel.  ``Scale``
presets size the synthetic graphs (see DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import WorkloadError
from repro.workloads.bc import build_bc
from repro.workloads.bfs import (
    build_bfs_dwc,
    build_bfs_ta,
    build_bfs_tf,
    build_bfs_ttc,
    build_bfs_twc,
)
from repro.workloads.gc import build_gc_dtc, build_gc_ttc
from repro.workloads.graph import CsrGraph, generate_rmat
from repro.workloads.kcore import build_kcore
from repro.workloads.pagerank import build_pagerank
from repro.workloads.regular import REGULAR_SPECS, build_regular
from repro.workloads.sssp import build_sssp_twc
from repro.workloads.trace import Workload


@dataclass(frozen=True)
class Scale:
    """Graph sizing preset.

    Smaller scales shrink the *page size* along with the graph so that the
    page **count** — the unit all batching/eviction behaviour is expressed
    in — stays representative.  At the ``paper`` scale the page size is
    Table 1's 64 KB.
    """

    name: str
    num_vertices: int
    avg_degree: int
    page_size: int
    #: Suggested GPU width: keeps total block count comfortably above the
    #: SMs' active slots so block dispatch (and TO) behaves as at full size.
    num_sms: int
    #: Memory ratio reproducing the paper's "50% oversubscription" regime.
    #: The synthetic traces touch their whole footprint every kernel sweep
    #: (hot set ~= footprint), whereas the paper's real graphs keep their
    #: per-phase hot set well below the footprint; the ratio is calibrated
    #: per scale so the *baseline's* oversubscription penalty matches the
    #: Figure 8 anchor (~46% loss) instead of falling off a thrash cliff.
    half_memory_ratio: float = 0.8

    def graph(self, seed: int = 0) -> CsrGraph:
        return generate_rmat(self.num_vertices, self.avg_degree, seed=seed)


SCALES = {
    "tiny": Scale(
        "tiny", 2_048, 8, page_size=4 * 1024, num_sms=1, half_memory_ratio=0.8
    ),
    "small": Scale(
        "small", 12_288, 12, page_size=16 * 1024, num_sms=4, half_memory_ratio=0.8
    ),
    "medium": Scale(
        "medium", 49_152, 14, page_size=32 * 1024, num_sms=8, half_memory_ratio=0.8
    ),
    "paper": Scale(
        "paper", 262_144, 16, page_size=64 * 1024, num_sms=16, half_memory_ratio=0.5
    ),
}

#: The paper's 11 irregular workloads (Section 5.1).
IRREGULAR_WORKLOADS: dict[str, Callable[..., Workload]] = {
    "BC": build_bc,
    "BFS-DWC": build_bfs_dwc,
    "BFS-TA": build_bfs_ta,
    "BFS-TF": build_bfs_tf,
    "BFS-TTC": build_bfs_ttc,
    "BFS-TWC": build_bfs_twc,
    "GC-DTC": build_gc_dtc,
    "GC-TTC": build_gc_ttc,
    "KCORE": build_kcore,
    "SSSP-TWC": build_sssp_twc,
    "PR": build_pagerank,
}

#: Figure 1's regular workloads.
REGULAR_WORKLOADS = tuple(sorted(REGULAR_SPECS))


def workload_names(kind: str = "irregular") -> list[str]:
    if kind == "irregular":
        return list(IRREGULAR_WORKLOADS)
    if kind == "regular":
        return list(REGULAR_WORKLOADS)
    raise WorkloadError(f"unknown workload kind {kind!r}")


@lru_cache(maxsize=64)
def _cached_graph(scale_name: str, seed: int) -> CsrGraph:
    return SCALES[scale_name].graph(seed)


def build_workload(name: str, scale: str = "tiny", seed: int = 0) -> Workload:
    """Build (and memoize) a workload by name.

    Traces are immutable, so sharing one built workload across simulator
    runs is safe — the simulator instantiates fresh warps per run.  The
    memo is keyed on the canonical ``(NAME, scale, seed)``, however the
    call is spelled, so one trace exists per workload; the key is
    recorded on the workload, which then pickles by reference to it.
    """
    return _build_canonical(name.upper(), scale, seed)


@lru_cache(maxsize=64)
def _build_canonical(name: str, scale: str, seed: int) -> Workload:
    if scale not in SCALES:
        raise WorkloadError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    preset = SCALES[scale]
    if name in IRREGULAR_WORKLOADS:
        graph = _cached_graph(scale, seed)
        workload = IRREGULAR_WORKLOADS[name](graph, page_size=preset.page_size)
    elif name in REGULAR_SPECS:
        blocks = {"tiny": 32, "small": 128, "medium": 256, "paper": 1024}[scale]
        workload = build_regular(name, num_blocks=blocks, page_size=preset.page_size)
    else:
        raise WorkloadError(
            f"unknown workload {name!r}; irregular: {sorted(IRREGULAR_WORKLOADS)}, "
            f"regular: {sorted(REGULAR_SPECS)}"
        )
    workload.num_sms_hint = preset.num_sms
    workload.registry_key = (name, scale, seed)
    return workload


#: The memo's controls, on the public entry point.
build_workload.cache_clear = _build_canonical.cache_clear
build_workload.cache_info = _build_canonical.cache_info
