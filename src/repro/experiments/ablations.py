"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the knobs the paper fixes:

* ``replacement`` — the driver's allocation-ordered ("aged") LRU vs. a
  true access-ordered LRU.  Aged LRU evicts hot-but-old pages; access LRU
  is the upper bound a hardware-access-informed policy could reach.
* ``prefetch`` — the Zheng et al. tree prefetcher vs. none.
* ``dirty`` — skipping the D2H transfer for clean (never-written) victims
  vs. the driver's always-writeback.
* ``bandwidth`` — UE's benefit as a function of the D2H/H2D bandwidth
  ratio.  UE's pipelining hinges on evictions keeping pace with
  migrations (Section 4.2 cites D2H being the faster direction).
* ``to-degree`` — the maximum thread-oversubscription degree.

Every run goes through the dispatcher in :mod:`repro.experiments.common`
(:func:`~repro.experiments.common.run_cells`, ``run_config``,
``run_matrix``), so ablation cells share the persistent run cache and fan
out across ``--jobs`` workers like the paper figures: each ``run_*``
first dispatches its full cell set, then assembles the table from cache
hits.
"""

from __future__ import annotations

from dataclasses import replace

from repro import systems
from repro.experiments.cells import RunSpec, half_ratio
from repro.experiments.common import (
    ExperimentResult,
    is_failure,
    run_cells,
    run_config,
    run_matrix,
)
from repro.workloads.registry import build_workload

DEFAULT_WORKLOADS = ("BFS-TTC", "BFS-TWC", "KCORE", "PR")


def _run(workload: str, config, scale: str) -> int | None:
    """Exec cycles for one cell, or ``None`` if it failed (keep-going)."""
    result = run_config(workload, config, scale=scale)
    return None if is_failure(result) else result.exec_cycles


def _prewarm(named_configs, scale: str, label: str) -> None:
    """Fan out a list of (workload-name, SimConfig) cells."""
    run_cells(
        [
            RunSpec(name, config=config, scale=scale)
            for name, config in named_configs
        ],
        label=label,
    )


def run_replacement(scale: str = "tiny", workloads=DEFAULT_WORKLOADS) -> ExperimentResult:
    """Aged (driver) LRU vs. access LRU under BASELINE and TO+UE."""
    result = ExperimentResult(
        experiment="abl-replacement",
        title="Ablation: replacement policy (speedup of access-LRU over aged-LRU)",
        columns=["baseline", "to_ue"],
        notes=(
            "Access-ordered LRU avoids evicting hot-but-old pages; the "
            "driver cannot see accesses, so aged LRU is what ships."
        ),
    )
    configs: dict[tuple[str, str], tuple] = {}
    for name in workloads:
        workload = build_workload(name, scale=scale)
        for column, preset in (("baseline", systems.BASELINE),
                               ("to_ue", systems.TO_UE)):
            aged = preset.configure(workload, ratio=half_ratio(scale))
            accessed = replace(
                aged, uvm=replace(aged.uvm, replacement_policy="access-lru")
            )
            configs[(name, column)] = (aged, accessed)
    _prewarm(
        [(name, cfg) for (name, _), pair in configs.items() for cfg in pair],
        scale,
        "abl-replacement",
    )
    for name in workloads:
        row = {}
        for column in ("baseline", "to_ue"):
            aged, accessed = configs[(name, column)]
            aged_cycles = _run(name, aged, scale)
            accessed_cycles = _run(name, accessed, scale)
            if aged_cycles is None or accessed_cycles is None:
                break  # keep-going sweeps: skip rows with failed cells
            row[column] = aged_cycles / accessed_cycles
        else:
            result.add_row(name, **row)
    result.add_row(
        "AVERAGE", **{c: result.mean(c) for c in result.columns}
    )
    return result


def run_prefetch(scale: str = "tiny", workloads=DEFAULT_WORKLOADS) -> ExperimentResult:
    """Tree prefetcher vs. none (speedup of prefetching)."""
    result = ExperimentResult(
        experiment="abl-prefetch",
        title="Ablation: tree prefetcher speedup over no prefetching",
        columns=["baseline", "to_ue", "prefetched_pages"],
        notes="The baseline system's prefetcher (Zheng et al.) vs. demand-only.",
    )
    configs: dict[tuple[str, str], tuple] = {}
    for name in workloads:
        workload = build_workload(name, scale=scale)
        for column, preset in (("baseline", systems.BASELINE),
                               ("to_ue", systems.TO_UE)):
            with_pf = preset.configure(workload, ratio=half_ratio(scale))
            without = replace(
                with_pf, uvm=replace(with_pf.uvm, prefetcher="none")
            )
            configs[(name, column)] = (with_pf, without)
    _prewarm(
        [(name, cfg) for (name, _), pair in configs.items() for cfg in pair],
        scale,
        "abl-prefetch",
    )
    for name in workloads:
        row = {}
        for column in ("baseline", "to_ue"):
            with_pf, without = configs[(name, column)]
            without_cycles = _run(name, without, scale)
            with_cycles = _run(name, with_pf, scale)
            if without_cycles is None or with_cycles is None:
                break  # keep-going sweeps: skip rows with failed cells
            row[column] = without_cycles / with_cycles
        else:
            pf_run = run_config(name, configs[(name, "baseline")][0], scale=scale)
            if is_failure(pf_run):
                continue
            row["prefetched_pages"] = pf_run.prefetched_pages
            result.add_row(name, **row)
    result.add_row(
        "AVERAGE", **{c: result.mean(c) for c in result.columns}
    )
    return result


def run_dirty(scale: str = "tiny", workloads=DEFAULT_WORKLOADS) -> ExperimentResult:
    """Clean-eviction skipping as an *alternative* to Unobtrusive Eviction.

    Dirty tracking shortens the eviction that sits on the baseline's
    critical path; UE removes the eviction from the critical path
    entirely, so on top of UE the skip is worthless — the interesting
    comparison is baseline+skip vs. baseline vs. UE.
    """
    result = ExperimentResult(
        experiment="abl-dirty",
        title=(
            "Ablation: skipping clean-victim write-backs (speedup over the "
            "serialized baseline)"
        ),
        columns=["skip_clean", "ue", "ue_plus_skip"],
        notes=(
            "skip_clean shortens the critical-path eviction; UE hides it "
            "completely, so UE >= skip_clean and UE+skip ~= UE."
        ),
    )
    configs: dict[str, tuple] = {}
    for name in workloads:
        workload = build_workload(name, scale=scale)
        base_cfg = systems.BASELINE.configure(workload, ratio=half_ratio(scale))
        skip_cfg = replace(
            base_cfg,
            uvm=replace(base_cfg.uvm, skip_clean_eviction_transfer=True),
        )
        ue_cfg = systems.UE.configure(workload, ratio=half_ratio(scale))
        ue_skip_cfg = replace(
            ue_cfg, uvm=replace(ue_cfg.uvm, skip_clean_eviction_transfer=True)
        )
        configs[name] = (base_cfg, skip_cfg, ue_cfg, ue_skip_cfg)
    _prewarm(
        [(name, cfg) for name, quad in configs.items() for cfg in quad],
        scale,
        "abl-dirty",
    )
    for name in workloads:
        base_cfg, skip_cfg, ue_cfg, ue_skip_cfg = configs[name]
        cycles = [
            _run(name, cfg, scale)
            for cfg in (base_cfg, skip_cfg, ue_cfg, ue_skip_cfg)
        ]
        if any(c is None for c in cycles):
            continue  # keep-going sweeps: skip rows with failed cells
        base, skip_cycles, ue_cycles, ue_skip_cycles = cycles
        result.add_row(
            name,
            skip_clean=base / skip_cycles,
            ue=base / ue_cycles,
            ue_plus_skip=base / ue_skip_cycles,
        )
    result.add_row(
        "AVERAGE", **{c: result.mean(c) for c in result.columns}
    )
    return result


def run_bandwidth(scale: str = "tiny", workload: str = "BFS-TTC") -> ExperimentResult:
    """UE speedup vs. the D2H/H2D bandwidth ratio."""
    result = ExperimentResult(
        experiment="abl-bandwidth",
        title=f"Ablation: UE speedup vs D2H/H2D bandwidth ratio ({workload})",
        columns=["ue_speedup"],
        notes=(
            "The slower the D2H direction, the more the *baseline* pays "
            "for its serialized evictions — so UE's speedup is largest "
            "when D2H is slow, and shrinks (without vanishing) as D2H "
            "gets fast enough that evictions were cheap anyway."
        ),
    )
    wl = build_workload(workload, scale=scale)
    factors = (0.5, 0.75, 1.0, 1.1, 1.5)
    configs: dict[float, tuple] = {}
    for d2h_factor in factors:
        base_cfg = systems.BASELINE.configure(wl, ratio=half_ratio(scale))
        ue_cfg = systems.UE.configure(wl, ratio=half_ratio(scale))
        h2d = base_cfg.uvm.pcie_h2d_gbps
        base_cfg = replace(
            base_cfg, uvm=replace(base_cfg.uvm, pcie_d2h_gbps=h2d * d2h_factor)
        )
        ue_cfg = replace(
            ue_cfg, uvm=replace(ue_cfg.uvm, pcie_d2h_gbps=h2d * d2h_factor)
        )
        configs[d2h_factor] = (base_cfg, ue_cfg)
    _prewarm(
        [(workload, cfg) for pair in configs.values() for cfg in pair],
        scale,
        "abl-bandwidth",
    )
    for d2h_factor in factors:
        base_cfg, ue_cfg = configs[d2h_factor]
        base_cycles = _run(workload, base_cfg, scale)
        ue_cycles = _run(workload, ue_cfg, scale)
        if base_cycles is None or ue_cycles is None:
            continue  # keep-going sweeps: skip rows with failed cells
        result.add_row(
            f"d2h={d2h_factor:.2f}x",
            ue_speedup=base_cycles / ue_cycles,
        )
    return result


def run_to_degree(scale: str = "tiny", workload: str = "BFS-TTC") -> ExperimentResult:
    """TO+UE speedup vs. the maximum oversubscription degree."""
    result = ExperimentResult(
        experiment="abl-to-degree",
        title=f"Ablation: TO+UE speedup vs max extra blocks ({workload})",
        columns=["speedup", "context_switches"],
        notes="Degree 0 disables context switching entirely (pure UE).",
    )
    wl = build_workload(workload, scale=scale)
    base_cfg = systems.BASELINE.configure(wl, ratio=half_ratio(scale))
    configs: dict[int, object] = {}
    for degree in (0, 1, 2, 3):
        config = systems.TO_UE.configure(wl, ratio=half_ratio(scale))
        configs[degree] = replace(
            config,
            to=replace(
                config.to,
                enabled=degree > 0,
                initial_extra_blocks=min(1, degree),
                max_extra_blocks=max(degree, 1),
            ),
        )
    _prewarm(
        [(workload, base_cfg)]
        + [(workload, cfg) for cfg in configs.values()],
        scale,
        "abl-to-degree",
    )
    base_cycles = _run(workload, base_cfg, scale)
    for degree, config in configs.items():
        run_result = run_config(workload, config, scale=scale)
        if base_cycles is None or is_failure(run_result):
            continue  # keep-going sweeps: skip rows with failed cells
        result.add_row(
            f"degree={degree}",
            speedup=base_cycles / run_result.exec_cycles,
            context_switches=run_result.context_switches,
        )
    return result


def run_runahead(scale: str = "tiny", workloads=DEFAULT_WORKLOADS) -> ExperimentResult:
    """Runahead fault generation vs. Thread Oversubscription (§4.1).

    The paper dismisses runahead as "likely less effective to generate a
    large number of page faults in a short amount of time because each
    thread block typically runs short"; this ablation tests the claim.
    """
    result = ExperimentResult(
        experiment="abl-runahead",
        title="Ablation: runahead fault probing vs thread oversubscription",
        columns=["runahead", "to", "runahead_batches_pct", "to_batches_pct"],
        notes=(
            "Speedups over the baseline; batch counts relative to the "
            "baseline's (lower = bigger batches)."
        ),
    )
    runs = run_matrix(
        (systems.BASELINE, systems.RUNAHEAD, systems.TO),
        workloads,
        scale=scale,
        label="abl-runahead",
    )
    for name in workloads:
        base = runs[(name, systems.BASELINE.name)]
        runahead = runs[(name, systems.RUNAHEAD.name)]
        to = runs[(name, systems.TO.name)]
        if is_failure(base) or is_failure(runahead) or is_failure(to):
            continue  # keep-going sweeps: skip rows with failed cells
        base_batches = base.batch_stats.num_batches or 1
        result.add_row(
            name,
            runahead=base.exec_cycles / runahead.exec_cycles,
            to=base.exec_cycles / to.exec_cycles,
            runahead_batches_pct=100.0
            * runahead.batch_stats.num_batches
            / base_batches,
            to_batches_pct=100.0 * to.batch_stats.num_batches / base_batches,
        )
    result.add_row(
        "AVERAGE", **{c: result.mean(c) for c in result.columns}
    )
    return result


def run(scale: str = "tiny") -> ExperimentResult:
    """CLI entry point: the replacement-policy ablation (headline one)."""
    return run_replacement(scale=scale)
