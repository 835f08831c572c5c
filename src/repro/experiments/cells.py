"""What a simulation cell is and how one runs.

A :class:`RunSpec` names one ``(preset | config, workload, scale, ratio,
fault-handling time, seed)`` run; :func:`open_cell` and
:func:`drive_cell` execute it, for sweeps, pool workers and ``repro-run``
alike.  The lowest experiment layer: it imports nothing else from
:mod:`repro.experiments` or :mod:`repro.pool`.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, replace
from typing import Callable

from repro.chaos.config import PROCESS_KINDS, ChaosConfig, split_process_chaos
from repro.checkpoint import try_load
from repro.errors import ConfigError
from repro.gpu.config import SimConfig
from repro.simulator import GpuUvmSimulator, SimulationResult
from repro.systems import SystemPreset
from repro.workloads.registry import SCALES, build_workload
from repro.workloads.trace import Workload

#: Event-cap safety net: experiments should never grind unbounded.
MAX_EVENTS = 60_000_000


def half_ratio(scale: str) -> float:
    """The scale's calibrated '50% oversubscription' memory ratio."""
    return SCALES[scale].half_memory_ratio


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: everything needed to (re)produce a run.

    ``preset`` executes ``preset.configure(workload, ...)``; an explicit
    ``config`` (ablations) bypasses the preset and runs the given
    :class:`SimConfig` directly.  Exactly one of the two must be set.
    """

    workload: str
    preset: SystemPreset | None = None
    config: SimConfig | None = None
    scale: str = "tiny"
    ratio: float | None = None
    fault_handling_cycles: int | None = None
    seed: int = 0
    max_events: int = MAX_EVENTS
    #: Fault-injection plan threaded into the configured system
    #: (:mod:`repro.chaos`); participates in the cache key.
    chaos: ChaosConfig | None = None
    #: Batch-boundary invariant checking (:mod:`repro.invariants`).
    check_invariants: bool = False
    #: Per-cell wall-clock budget; a run exceeding it raises
    #: :class:`~repro.errors.SimulationStalledError` from the engine
    #: watchdog.  Deliberately *not* part of the cache key: a timeout
    #: never produces a cacheable result.
    wall_budget_seconds: float | None = None
    #: Whole-simulation checkpointing (:mod:`repro.checkpoint`): write a
    #: resumable snapshot every ``checkpoint_every`` batches into
    #: ``checkpoint_dir``; with ``resume`` the cell first looks for its
    #: checkpoint file and continues from it.  None of these participate
    #: in the cache key — a resumed run is bit-identical to a fresh one,
    #: and checkpointing never changes *what* is computed, only whether a
    #: stalled cell's progress survives.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    #: Process-level chaos for the supervised pool (``worker-kill`` /
    #: ``worker-hang`` / ``worker-slow``).  Deliberately *not* part of
    #: the cache key: process chaos perturbs where a cell computes,
    #: never what it computes — a chaotic sweep shares cache entries
    #: with (and stays bit-identical to) a chaos-free one.
    pool_chaos: ChaosConfig | None = None

    def __post_init__(self) -> None:
        if self.pool_chaos is not None:
            foreign = [
                s.kind for s in self.pool_chaos.injectors
                if s.kind not in PROCESS_KINDS
            ]
            if foreign:
                raise ConfigError(
                    "pool chaos accepts process-level kinds only",
                    rejected=foreign, accepted=sorted(PROCESS_KINDS),
                )

    def resolved(self) -> "RunSpec":
        """Canonicalise so equal runs always produce equal cache keys:
        upper-case the workload name (the registry is case-insensitive),
        fill the scale-calibrated default ratio, and split process-level
        chaos kinds out of ``chaos`` into ``pool_chaos`` so they can never
        contaminate ``SimConfig`` or a cache key.  Policy defaults are not
        applied here (see :meth:`repro.experiments.policy.RunPolicy.apply`)."""
        spec = self
        if spec.workload != spec.workload.upper():
            spec = replace(spec, workload=spec.workload.upper())
        if spec.ratio is None and spec.config is None:
            spec = replace(spec, ratio=half_ratio(spec.scale))
        if spec.chaos is not None:
            sim_chaos, process_chaos = split_process_chaos(spec.chaos)
            if process_chaos is not None:
                spec = replace(
                    spec,
                    chaos=sim_chaos,
                    pool_chaos=(
                        spec.pool_chaos
                        if spec.pool_chaos is not None
                        else process_chaos
                    ),
                )
        return spec


def memo_key(spec: RunSpec) -> tuple:
    """Cache key of a resolved cell (``max_events`` included — a capped
    partial run must never satisfy a full one).
    Checkpoint fields and ``pool_chaos`` are deliberately absent: resumed
    runs and runs under process-level chaos produce results identical to
    uninterrupted, chaos-free ones, so they share a cache entry."""
    robustness = (spec.chaos, spec.check_invariants)
    if spec.config is not None:
        config_hash = hashlib.sha256(
            repr(spec.config).encode()
        ).hexdigest()
        return (
            "config",
            config_hash,
            spec.workload,
            spec.scale,
            spec.seed,
            spec.max_events,
        ) + robustness
    return (
        spec.preset.name,
        spec.workload,
        spec.scale,
        spec.ratio,
        spec.fault_handling_cycles,
        spec.seed,
        spec.max_events,
    ) + robustness


def spec_digest(spec: RunSpec) -> str:
    """Short stable digest of the memo key: identifies the cell in the
    pool's circuit breaker and chaos plans."""
    return hashlib.sha256(repr(memo_key(spec)).encode()).hexdigest()[:24]


def checkpoint_file(spec: RunSpec) -> pathlib.Path:
    """The cell's stable checkpoint path, so the fresh run, the stall
    handler, the pool's crash handoff, and every resume attempt all
    agree on one file.  Keyed by the memo key (which excludes the
    checkpoint fields themselves) without ``max_events``: an event cap
    only decides where one drive stops, not which states the run passes
    through, so a capped leg and its uncapped resume share the file."""
    digest = spec_digest(replace(spec, max_events=None))
    return pathlib.Path(spec.checkpoint_dir) / f"{spec.workload}-{digest}.ckpt"


#: Worker-process-local hook called with each freshly built/restored
#: simulator (after checkpoints are enabled): the mount point for
#: process-level chaos (:mod:`repro.pool.worker`) and for profilers.
#: Not policy — it never crosses a process boundary.
_CELL_HOOK: Callable | None = None


def set_cell_hook(hook: Callable | None) -> None:
    """Install the simulator hook of this process (pool internals)."""
    global _CELL_HOOK
    _CELL_HOOK = hook


def cell_config(spec: RunSpec) -> tuple[Workload, SimConfig]:
    """The workload and :class:`SimConfig` a resolved cell simulates."""
    workload = build_workload(spec.workload, spec.scale, spec.seed)
    if spec.config is None:
        return workload, spec.preset.configure(
            workload,
            ratio=spec.ratio,
            fault_handling_cycles=spec.fault_handling_cycles,
            chaos=spec.chaos,
            check_invariants=spec.check_invariants,
        )
    config = spec.config
    if spec.chaos is not None or spec.check_invariants:
        config = replace(
            config,
            chaos=spec.chaos if spec.chaos is not None else config.chaos,
            check_invariants=spec.check_invariants or config.check_invariants,
        )
    return workload, config


def open_cell(spec: RunSpec) -> tuple[GpuUvmSimulator, bool]:
    """The simulator of a resolved cell, ready for :func:`drive_cell`;
    returns ``(sim, resumed)``.

    With ``spec.resume``, an existing usable checkpoint short-circuits
    the fresh build: the restored simulator continues from its last
    batch boundary, bit-identical to the uninterrupted run, and carries
    the obs session it was checkpointed with.  Unusable checkpoints
    (truncated, version-skewed) degrade to a fresh build with a warning.
    A fresh build joins the installed obs session (:func:`repro.obs.install`).
    With a checkpoint directory set, the cell writes resumable snapshots
    at batch boundaries (and when the watchdog stalls it)."""
    path = None if spec.checkpoint_dir is None else checkpoint_file(spec)
    sim = None
    if path is not None and spec.resume and path.exists():
        checkpoint = try_load(path)
        if checkpoint is not None:
            sim = checkpoint.restore()
    resumed = sim is not None
    if sim is None:
        sim = GpuUvmSimulator(*cell_config(spec))
    if path is not None:
        sim.enable_checkpoints(
            spec.checkpoint_dir,
            every=spec.checkpoint_every,
            basename=path.stem,
        )
    if _CELL_HOOK is not None:
        _CELL_HOOK(sim)
    return sim, resumed


def drive_cell(
    spec: RunSpec, sim: GpuUvmSimulator, resumed: bool
) -> SimulationResult:
    """Run (or, when ``resumed``, resume) the simulator :func:`open_cell`
    returned to completion, then discard the cell's checkpoint: a
    finished cell must never be resumed from a stale mid-run snapshot."""
    drive = sim.resume if resumed else sim.run
    result = drive(
        max_events=spec.max_events,
        wall_budget_seconds=spec.wall_budget_seconds,
    )
    if spec.checkpoint_dir is not None:
        try:
            checkpoint_file(spec).unlink()
        except OSError:
            pass  # best-effort: already gone, or a read-only directory
    return result


def simulate_spec(spec: RunSpec) -> SimulationResult:
    """Execute one resolved cell.  Runs in worker processes too, so it
    must stay a module-level function of picklable arguments.

    The wall-clock budget rides inside the simulation (an engine
    watchdog), so per-cell timeouts work identically in the serial path
    and in forked workers — no executor-level cancellation needed."""
    return drive_cell(spec, *open_cell(spec))
