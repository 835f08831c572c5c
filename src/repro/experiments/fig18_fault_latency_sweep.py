"""Figure 18 — sensitivity to the GPU runtime fault handling time.

TO's whole premise is amortising the runtime's fixed fault-handling cost,
so its speedup over the baseline grows as that cost grows from the
conservative 20 us to the 50 us the paper measured for irregular
applications on real hardware.  Each point is normalised to a baseline
run with the *same* fault handling time.

We report the TO, UE, and TO+UE speedups separately: the rising trend
lives in the TO component (the amortisation mechanism), while UE's
eviction hiding is FHT-independent and so *shrinks* as a share of the
batch time — at small scale the two roughly cancel in the composed
system (a deviation from the paper's composed trend, recorded in
EXPERIMENTS.md).
"""

from __future__ import annotations

from repro import systems
from repro.experiments.cells import RunSpec
from repro.experiments.common import (
    ExperimentResult,
    is_failure,
    run_cells,
    run_system,
)

EXPECTATION = (
    "TO's speedup over the baseline increases monotonically with the GPU "
    "runtime fault handling time; the paper's composed TO+UE rises from "
    "~2.0x at 20us toward ~2.5x at 50us."
)

#: Paper sweep, in paper-unit cycles (us at 1 GHz).
FAULT_HANDLING_CYCLES = (20_000, 30_000, 40_000, 50_000)

DEFAULT_WORKLOADS = ("BFS-TTC", "BFS-TWC", "PR", "KCORE", "BC", "SSSP-TWC")


def run(
    scale: str = "tiny",
    workloads=DEFAULT_WORKLOADS,
    fht_values=FAULT_HANDLING_CYCLES,
    ratio=None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig18",
        title="Figure 18: speedup vs GPU fault handling time",
        columns=["to", "ue", "to_ue"],
        notes=EXPECTATION,
    )
    presets = (systems.BASELINE, systems.TO, systems.UE, systems.TO_UE)
    # Fan out the full (fht, workload, system) cube; the loops below then
    # read cache hits.
    run_cells(
        [
            RunSpec(
                name,
                preset=preset,
                scale=scale,
                ratio=ratio,
                fault_handling_cycles=fht,
            )
            for fht in fht_values
            for name in workloads
            for preset in presets
        ],
        label="fig18",
    )
    for fht in fht_values:
        speedups = {"to": [], "ue": [], "to_ue": []}
        for name in workloads:
            base = run_system(
                systems.BASELINE, name, scale=scale, ratio=ratio,
                fault_handling_cycles=fht,
            )
            if is_failure(base):
                continue  # keep-going sweeps: skip failed cells
            for key, preset in (
                ("to", systems.TO),
                ("ue", systems.UE),
                ("to_ue", systems.TO_UE),
            ):
                run_result = run_system(
                    preset, name, scale=scale, ratio=ratio,
                    fault_handling_cycles=fht,
                )
                if is_failure(run_result):
                    continue
                speedups[key].append(base.exec_cycles / run_result.exec_cycles)
        result.add_row(
            f"{fht // 1000}us",
            **{
                key: sum(vals) / len(vals) if vals else 0.0
                for key, vals in speedups.items()
            },
        )
    return result
