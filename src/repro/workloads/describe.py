"""Workload inspection: footprints, grids, divergence, sharing.

``python -m repro.workloads`` prints a catalogue of every registered
workload at a chosen scale — the numbers an adopter needs to size GPU
memory and interpret simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import LINE_SIZE, WARP_SIZE
from repro.gpu.warp_soa import kernel_derived
from repro.workloads.trace import Workload


@dataclass(frozen=True)
class WorkloadProfile:
    """Summary statistics of one workload's trace."""

    name: str
    irregular: bool
    footprint_bytes: int
    footprint_pages: int
    kernels: int
    blocks: int
    warp_ops: int
    touched_pages: int
    mean_addresses_per_op: float
    mean_pages_per_op: float
    store_op_fraction: float
    shared_page_fraction: float

    def row(self) -> str:
        kind = "irregular" if self.irregular else "regular"
        return (
            f"{self.name:10s} {kind:9s} {self.footprint_bytes // 1024:>8d}K "
            f"{self.footprint_pages:>6d}p {self.kernels:>4d} {self.blocks:>6d} "
            f"{self.warp_ops:>8d} {self.mean_pages_per_op:>6.2f} "
            f"{self.store_op_fraction:>6.1%} {self.shared_page_fraction:>7.1%}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'workload':10s} {'kind':9s} {'footprint':>9s} {'pages':>7s} "
            f"{'krnl':>4s} {'blocks':>6s} {'ops':>8s} {'pg/op':>6s} "
            f"{'store%':>6s} {'shared%':>7s}"
        )


def profile(workload: Workload) -> WorkloadProfile:
    """Compute summary statistics from the workload's traces."""
    shift = workload.address_space.page_shift
    ops = 0
    addresses = 0
    pages_per_op = 0
    store_ops = 0
    touched: set[int] = set()
    for kernel in workload.kernels:
        addresses += kernel.addresses.size
        for pages, _, store_pages, _ in kernel_derived(kernel, shift, 1.0):
            ops += len(pages)
            pages_per_op += sum(map(len, pages))
            touched.update(*pages)
            store_ops += sum(map(bool, store_pages))
    # Page sharing: how many blocks touch each page in the biggest kernel.
    biggest = max(workload.kernels, key=lambda k: k.num_blocks)
    page_owners: dict[int, int] = {}
    for pages in biggest.block_pages(shift):
        for page in pages:
            page_owners[page] = page_owners.get(page, 0) + 1
    shared = sum(1 for count in page_owners.values() if count > 1)
    return WorkloadProfile(
        name=workload.name,
        irregular=workload.irregular,
        footprint_bytes=workload.footprint_bytes,
        footprint_pages=workload.footprint_pages,
        kernels=len(workload.kernels),
        blocks=sum(k.num_blocks for k in workload.kernels),
        warp_ops=ops,
        touched_pages=len(touched),
        mean_addresses_per_op=addresses / ops if ops else 0.0,
        mean_pages_per_op=pages_per_op / ops if ops else 0.0,
        store_op_fraction=store_ops / ops if ops else 0.0,
        shared_page_fraction=shared / len(page_owners) if page_owners else 0.0,
    )


def estimated_threads(workload: Workload) -> int:
    """Peak threads launched by any single kernel."""
    return max(
        kernel.num_blocks * kernel.resources.threads_per_block
        for kernel in workload.kernels
    )


def divergence_index(workload: Workload, sample_ops: int = 2000) -> float:
    """Mean unique-lines-per-address over a sample of multi-address ops.

    1.0 = every address on its own 128 B line (fully divergent);
    1/32 ~ perfectly coalesced warp access.
    """
    seen = 0
    total = 0.0
    for kernel in workload.kernels:
        lines = (kernel.addresses // LINE_SIZE).tolist()
        start = 0
        for end in kernel.op_end.tolist():
            if end - start >= WARP_SIZE // 2:
                total += len(set(lines[start:end])) / (end - start)
                seen += 1
                if seen >= sample_ops:
                    return total / seen
            start = end
    return total / seen if seen else 0.0
