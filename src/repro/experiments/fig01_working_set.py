"""Figure 1 — working-set size vs. number of active GPU cores.

For most *regular* workloads the working set grows with the number of
active SMs (each block owns a private tile), so core throttling shrinks
it; for *irregular* graph workloads most pages are shared across cores,
so the working set stays nearly flat — the paper's argument for why ETC's
memory-aware throttling cannot help them.

The metric is trace-analytic (no simulation): with N active SMs, the
blocks concurrently resident form waves of ``N x blocks_per_sm``; the
working set for N is the mean page count over waves, normalised to the
all-SMs value.
"""

from __future__ import annotations

from repro.experiments.common import (
    FIG1_REGULAR,
    PAPER_WORKLOADS,
    ExperimentResult,
)
from repro.gpu.config import GpuConfig
from repro.gpu.occupancy import OccupancyCalculator
from repro.workloads.registry import build_workload
from repro.workloads.trace import Workload

EXPECTATION = (
    "Regular workloads' working set grows roughly linearly with active SM "
    "count; irregular graph workloads stay nearly flat because pages are "
    "shared across cores."
)

#: Figure 1's x-axis.
SM_COUNTS = tuple(range(1, 17))


def working_set_curve(workload: Workload, sm_counts=SM_COUNTS) -> list[float]:
    """Normalised working-set size per active-SM count."""
    kernel = max(workload.kernels, key=lambda k: k.num_blocks)
    blocks_per_sm = OccupancyCalculator(GpuConfig()).blocks_per_sm(
        kernel.resources
    )
    shift = workload.address_space.page_shift
    block_pages = kernel.block_pages(shift)

    def mean_wave_pages(active_sms: int) -> float:
        wave = max(1, active_sms * blocks_per_sm)
        sizes = []
        for start in range(0, len(block_pages), wave):
            union: set[int] = set()
            for pages in block_pages[start : start + wave]:
                union |= pages
            sizes.append(len(union))
        return sum(sizes) / len(sizes) if sizes else 0.0

    raw = [mean_wave_pages(n) for n in sm_counts]
    reference = raw[-1] or 1.0
    return [value / reference for value in raw]


def run(scale: str = "tiny", sm_counts=SM_COUNTS) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig1",
        title="Figure 1: working set vs. active GPU cores (normalised to 16 SMs)",
        columns=[f"{n}SM" for n in sm_counts],
        notes=EXPECTATION,
    )
    for name in FIG1_REGULAR:
        curve = working_set_curve(build_workload(name, scale=scale), sm_counts)
        result.add_row(
            f"{name} (regular)",
            **{f"{n}SM": v for n, v in zip(sm_counts, curve)},
        )
    for name in PAPER_WORKLOADS:
        curve = working_set_curve(build_workload(name, scale=scale), sm_counts)
        result.add_row(
            f"{name} (irregular)",
            **{f"{n}SM": v for n, v in zip(sm_counts, curve)},
        )
    return result


def sharing_summary(result: ExperimentResult) -> dict[str, float]:
    """Mean 1-SM working set (as a fraction of the 16-SM one) per class.

    Regular ~ 1/16 (strictly private tiles); irregular ~ 1 (fully shared).
    """
    regular = [
        values[result.columns[0]]
        for label, values in result.rows
        if label.endswith("(regular)")
    ]
    irregular = [
        values[result.columns[0]]
        for label, values in result.rows
        if label.endswith("(irregular)")
    ]
    return {
        "regular_1sm": sum(regular) / len(regular),
        "irregular_1sm": sum(irregular) / len(irregular),
    }
