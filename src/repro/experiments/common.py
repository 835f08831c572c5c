"""Shared experiment plumbing: runs, caching, parallel fan-out, result tables.

The experiment layer runs large matrices of independent simulation cells
(``(preset, workload, ratio, fault-handling-time, seed)``); simulations are
deterministic and share no state, so the cells can run concurrently and
their results can be reused forever.  Two mechanisms exploit that:

* **Persistent run cache** — every completed cell is written to
  ``.repro-cache/`` (override with ``REPRO_CACHE_DIR`` or the CLI's
  ``--cache-dir``), keyed by a stable hash of the full run parameters plus
  a content fingerprint of the ``repro`` package source, so results
  survive across CLI invocations and benchmark sessions and are
  invalidated the moment the simulator changes.  Disable with
  ``REPRO_CACHE=0``, ``--no-cache``, or ``RunPolicy(cache_enabled=False)``.
  Each directory has one in-process :class:`RunCache` (memo, counters,
  pins), shared by every policy that names it.
* **Supervised parallel fan-out** — :func:`run_cells` (and
  :func:`run_matrix` on top of it) dispatches cache-missing cells to a
  crash-isolated :class:`repro.pool.SupervisedPool`: heartbeats, SIGTERM
  → SIGKILL escalation for hung workers, restart with backoff,
  checkpoint-based handoff of interrupted cells (a crashed cell resumes
  from its last batch boundary in a fresh worker), and one in-place heal
  when no worker can be kept alive.  Results are merged back by cell
  index, so a parallel run is bit-identical to the serial one.  Select
  workers with ``--jobs``, ``REPRO_JOBS``, or ``RunPolicy(jobs=N)``
  (default: serial).

Every cache-missing cell, in a sweep or in ``repro-serve``, is dispatched
by one function, :func:`submit_cell`: a future per cell, its result
cached the moment it lands, and one retry rule (:func:`_after_error`)
whether the cell runs in this process or on the pool.

How a sweep runs — cache, workers, chaos, timeouts, checkpoints,
retries, failure handling, pool supervision — is one frozen
:class:`RunPolicy`.  Entry points pass it explicitly (``policy=``) or
scope it over a block with :func:`run_policy`; calls that pass none run
under the default policy, built once from the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import pickle
import sys
import threading
import time as _time
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from repro.chaos.config import (
    PROCESS_KINDS,
    ChaosConfig,
    parse_chaos_spec,
    split_process_chaos,
)
from repro.errors import (
    CellFailure,
    ConfigError,
    ReproError,
    SimulationStalledError,
)
from repro.gpu.config import SimConfig
from repro.obs import current as _obs_current
from repro.simulator import GpuUvmSimulator, SimulationResult
from repro.systems import SystemPreset
from repro.workloads.registry import SCALES, build_workload
from repro.workloads.trace import Workload

#: Event-cap safety net: experiments should never grind unbounded.
MAX_EVENTS = 60_000_000

#: The paper's 11 irregular workloads, Figure 11 bar order.
PAPER_WORKLOADS = (
    "BC",
    "BFS-DWC",
    "BFS-TA",
    "BFS-TF",
    "BFS-TTC",
    "BFS-TWC",
    "GC-DTC",
    "GC-TTC",
    "KCORE",
    "SSSP-TWC",
    "PR",
)

#: Figure 1's regular workloads.
FIG1_REGULAR = ("CFD", "DWT", "GM", "H3D", "HS", "LUD")


@dataclass
class ExperimentResult:
    """A labelled table: rows of (label, {column: value})."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, **values: float) -> None:
        self.rows.append((label, values))

    def value(self, label: str, column: str) -> float:
        for row_label, values in self.rows:
            if row_label == label:
                return values[column]
        raise KeyError(f"no row {label!r} in {self.experiment}")

    def column(self, column: str) -> list[float]:
        return [values[column] for _, values in self.rows if column in values]

    def geomean(self, column: str) -> float:
        vals = [v for v in self.column(column) if v > 0]
        if not vals:
            return 0.0
        product = 1.0
        for v in vals:
            product *= v
        return product ** (1.0 / len(vals))

    def mean(self, column: str) -> float:
        vals = self.column(column)
        return sum(vals) / len(vals) if vals else 0.0

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        label_width = max(
            [len("workload")] + [len(label) for label, _ in self.rows]
        )
        header = "  ".join(
            [f"{'workload':<{label_width}}"]
            + [f"{col:>12}" for col in self.columns]
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for label, values in self.rows:
            cells = []
            for col in self.columns:
                v = values.get(col)
                if v is None:
                    cells.append(f"{'-':>12}")
                elif isinstance(v, float) and not v.is_integer():
                    cells.append(f"{v:>12.3f}")
                else:
                    cells.append(f"{int(v):>12}")
            lines.append("  ".join([f"{label:<{label_width}}"] + cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def half_ratio(scale: str) -> float:
    """The scale's calibrated '50% oversubscription' memory ratio."""
    return SCALES[scale].half_memory_ratio


# ----------------------------------------------------------------------
# Run specification
# ----------------------------------------------------------------------
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
        applied here (see :meth:`RunPolicy.apply`)."""
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


def _memo_key(spec: RunSpec) -> tuple:
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


# ----------------------------------------------------------------------
# Run policy
# ----------------------------------------------------------------------
_ON_ERROR_POLICIES = ("raise", "keep-going")


@dataclass(frozen=True)
class RunPolicy:
    """How cells run: cache, workers, robustness, pool supervision.

    Frozen and validated at construction (:class:`~repro.errors.ConfigError`),
    so a policy that exists is a policy that works.  It is applied to each
    cell in the calling process (:meth:`apply`): workers receive fully
    specified :class:`RunSpec` values and never read a policy themselves.
    See docs/robustness.md for what each knob does.
    """

    #: Persistent run-cache directory, whether to read/write it, and an
    #: optional size budget in bytes (least recently used entries are
    #: evicted past it; pinned entries never are).
    cache_dir: str = ".repro-cache"
    cache_enabled: bool = True
    cache_quota_bytes: int | None = None
    #: Worker processes for cache-missing cells (1: serial in-process).
    jobs: int = 1
    #: Per-cell progress lines on stderr.
    progress: bool = False
    #: Chaos plan for every cell that carries none.  Simulation-level
    #: kinds reach ``SimConfig``; process-level kinds (``worker-*``)
    #: reach the supervised pool only and never enter a cache key.
    chaos: ChaosConfig | None = None
    #: Batch-boundary invariant checks in every cell.
    invariants: bool = False
    #: Wall-clock budget per cell in seconds (``None``: unbounded).
    cell_timeout: float | None = None
    #: Checkpoint every cell into ``checkpoint_dir`` every
    #: ``checkpoint_every`` batches; with ``resume``, a cell whose
    #: checkpoint already exists continues from it.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    #: Re-runs after a transient failure, with exponential backoff
    #: starting at ``retry_backoff`` seconds.
    retries: int = 1
    retry_backoff: float = 0.25
    #: ``"raise"`` aborts on the first persistent cell failure;
    #: ``"keep-going"`` puts a :class:`~repro.errors.CellFailure` in the
    #: failed cell's result slot and completes the sweep.
    on_error: str = "raise"
    #: Supervised pool: worker heartbeat (``None`` disables heartbeat
    #: supervision), hard per-cell deadline, and the crashes on one memo
    #: key before the circuit breaker quarantines it.
    pool_heartbeat: float | None = 0.25
    worker_deadline: float | None = None
    breaker_threshold: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))
        if self.checkpoint_dir is not None:
            object.__setattr__(
                self, "checkpoint_dir", os.fspath(self.checkpoint_dir)
            )
        if self.cache_quota_bytes is not None and self.cache_quota_bytes <= 0:
            raise ConfigError(
                "cache quota must be positive", quota=self.cache_quota_bytes
            )
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1", jobs=self.jobs)
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigError(
                "cell timeout must be positive", timeout=self.cell_timeout
            )
        if self.checkpoint_every < 1:
            raise ConfigError(
                "checkpoint interval must be positive",
                every=self.checkpoint_every,
            )
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume requires a checkpoint directory")
        if self.retries < 0:
            raise ConfigError(
                "retries must be non-negative", retries=self.retries
            )
        if self.retry_backoff < 0:
            raise ConfigError("retry backoff must be non-negative")
        if self.on_error not in _ON_ERROR_POLICIES:
            raise ConfigError(
                f"unknown on-error policy {self.on_error!r}",
                accepted=list(_ON_ERROR_POLICIES),
            )
        if self.pool_heartbeat is not None and self.pool_heartbeat <= 0:
            raise ConfigError("pool heartbeat must be positive")
        if self.worker_deadline is not None and self.worker_deadline <= 0:
            raise ConfigError(
                "worker deadline must be positive",
                deadline=self.worker_deadline,
            )
        if self.breaker_threshold < 1:
            raise ConfigError(
                "breaker threshold must be at least 1",
                threshold=self.breaker_threshold,
            )

    @classmethod
    def from_env(cls) -> "RunPolicy":
        """The defaults, adjusted by ``REPRO_CACHE``, ``REPRO_CACHE_DIR``,
        ``REPRO_CACHE_QUOTA_MB`` and ``REPRO_JOBS`` — the only place the
        experiment layer reads the environment.  A value that is not a
        positive number raises :class:`~repro.errors.ConfigError`
        naming its variable."""
        env = os.environ

        def positive(name: str, parse: Callable):
            raw = env.get(name)
            try:
                value = parse(raw) if raw else None
            except ValueError:
                value = 0
            if value is not None and not 0 < value < float("inf"):
                raise ConfigError(f"{name} must be a positive number", value=raw)
            return value

        quota_mb = positive("REPRO_CACHE_QUOTA_MB", float)
        return cls(
            cache_dir=env.get("REPRO_CACHE_DIR") or ".repro-cache",
            cache_enabled=env.get("REPRO_CACHE", "1") != "0",
            cache_quota_bytes=quota_mb and max(1, int(quota_mb * 1024 * 1024)),
            jobs=positive("REPRO_JOBS", int) or 1,
        )

    @classmethod
    def from_args(
        cls, ns: argparse.Namespace, base: "RunPolicy | None" = None
    ) -> "RunPolicy":
        """``base`` (default: :func:`default_policy`) changed by every
        :data:`POLICY_FLAGS` flag ``ns`` holds a value for; raises
        :class:`~repro.errors.ReproError` for invalid values."""
        changes: dict = {}
        for dest, (_, _, change) in POLICY_FLAGS.items():
            value = getattr(ns, dest, None)
            if value is not None:
                changes.update(change(value, ns))
        return replace(base or default_policy(), **changes)

    def apply(self, spec: RunSpec) -> RunSpec:
        """``spec`` canonicalised (:meth:`RunSpec.resolved`) with this
        policy's defaults filled into whatever the cell leaves unset:
        chaos (simulation and process kinds separately), invariants,
        wall budget, and checkpointing.  Idempotent."""
        spec = spec.resolved()
        changes: dict = {}
        if self.chaos is not None:
            sim_chaos, process_chaos = split_process_chaos(self.chaos)
            if spec.chaos is None and sim_chaos is not None:
                changes["chaos"] = sim_chaos
            if spec.pool_chaos is None and process_chaos is not None:
                changes["pool_chaos"] = process_chaos
        if self.invariants and not spec.check_invariants:
            changes["check_invariants"] = True
        if spec.wall_budget_seconds is None and self.cell_timeout is not None:
            changes["wall_budget_seconds"] = self.cell_timeout
        if spec.checkpoint_dir is None and self.checkpoint_dir is not None:
            changes.update(
                checkpoint_dir=self.checkpoint_dir,
                checkpoint_every=self.checkpoint_every,
                resume=self.resume,
            )
        return replace(spec, **changes) if changes else spec

    def pool_config(self, workers: int):
        """The :class:`repro.pool.PoolConfig` for a pool under this policy."""
        from repro.pool import PoolConfig

        return PoolConfig(
            workers=workers,
            heartbeat=self.pool_heartbeat,
            cell_deadline=self.worker_deadline,
            breaker_threshold=self.breaker_threshold,
        )


def _pool_chaos(spec: str, seed: int | None) -> ChaosConfig:
    chaos = parse_chaos_spec(spec, seed=seed or 0)
    foreign = [s.kind for s in chaos.injectors if s.kind not in PROCESS_KINDS]
    if foreign:
        raise ConfigError(
            f"--pool-chaos accepts process-level kinds only (got "
            f"{foreign}; use --chaos in run requests for "
            f"simulation-level injectors)"
        )
    return chaos


def _flag(*options: str, change: Callable, **kwargs) -> tuple:
    return options, kwargs, change


#: Every run-policy flag, declared once and keyed by its ``dest``: option
#: strings, ``add_argument`` keywords, and ``change(value, ns)``, the
#: policy fields a parsed value sets (:meth:`RunPolicy.from_args`).
#: Every flag defaults to ``None``, which changes nothing, so each CLI's
#: defaults are the base policy it passes to ``from_args``.  CLIs pick
#: the flags they expose with :func:`add_policy_arguments`.
POLICY_FLAGS: dict[str, tuple] = {
    "jobs": _flag(
        "--jobs",
        "-j",
        type=int,
        metavar="N",
        help="worker processes for cache-missing cells (results are "
        "bit-identical for any N)",
        change=lambda v, ns: {"jobs": v},
    ),
    "no_cache": _flag(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent run cache",
        change=lambda v, ns: {"cache_enabled": False},
    ),
    "cache_dir": _flag(
        "--cache-dir",
        metavar="DIR",
        help="persistent run-cache directory (default: $REPRO_CACHE_DIR "
        "or .repro-cache)",
        change=lambda v, ns: {"cache_dir": v},
    ),
    "cache_quota_mb": _flag(
        "--cache-quota-mb",
        type=float,
        metavar="MB",
        help="bound the persistent cache directory; least-recently-used "
        "entries are evicted past this size (default: unbounded, or "
        "$REPRO_CACHE_QUOTA_MB)",
        change=lambda v, ns: {"cache_quota_bytes": int(v * 1024 * 1024)},
    ),
    "no_progress": _flag(
        "--no-progress",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
        change=lambda v, ns: {"progress": False},
    ),
    "chaos": _flag(
        "--chaos",
        metavar="SPEC",
        help="fault-injection spec, e.g. "
        "'dma-stall:prob=0.2;drop-fault:prob=0.05' (see repro.chaos); "
        "process-level kinds (worker-kill/-hang/-slow) act on supervised "
        "pool workers, so only the pooled CLIs take them",
        change=lambda v, ns: {
            "chaos": parse_chaos_spec(v, seed=ns.chaos_seed or 0)
        },
    ),
    "chaos_seed": _flag(
        "--chaos-seed",
        type=int,
        metavar="N",
        help="seed for the --chaos RNG streams (default: 0)",
        change=lambda v, ns: {},
    ),
    "pool_chaos": _flag(
        "--pool-chaos",
        metavar="SPEC",
        help="process-level chaos spec for the pool (worker-kill / "
        "worker-hang / worker-slow), e.g. 'worker-kill:prob=0.2'",
        change=lambda v, ns: {"chaos": _pool_chaos(v, ns.pool_chaos_seed)},
    ),
    "pool_chaos_seed": _flag(
        "--pool-chaos-seed",
        type=int,
        metavar="N",
        help="seed for --pool-chaos plans (default: 0)",
        change=lambda v, ns: {},
    ),
    "invariants": _flag(
        "--invariants",
        action="store_true",
        help="validate memory/page-table consistency at batch boundaries "
        "and quiescence (repro.invariants)",
        change=lambda v, ns: {"invariants": True},
    ),
    "cell_timeout": _flag(
        "--cell-timeout",
        "--wall-budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per cell; a cell exceeding it stops with a "
        "stall diagnosis (with --checkpoint-dir it checkpoints first, so "
        "--resume can continue it)",
        change=lambda v, ns: {"cell_timeout": v},
    ),
    "retries": _flag(
        "--retries",
        type=int,
        metavar="N",
        help="re-run transiently failing cells up to N times (default: 1); "
        "with --checkpoint-dir, cells stalled by --cell-timeout retry by "
        "*resuming* their checkpoint instead of starting over",
        change=lambda v, ns: {"retries": v},
    ),
    "checkpoint_dir": _flag(
        "--checkpoint-dir",
        metavar="DIR",
        help="write resumable whole-simulation checkpoints into DIR at "
        "batch boundaries and on stalls (repro.checkpoint)",
        change=lambda v, ns: {"checkpoint_dir": v},
    ),
    "checkpoint_every": _flag(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="checkpoint every N completed batches (default: 1)",
        change=lambda v, ns: {"checkpoint_every": v},
    ),
    "resume": _flag(
        "--resume",
        action="store_true",
        help="continue cells from the checkpoints a previous (killed or "
        "stalled) invocation left in --checkpoint-dir; cells without a "
        "usable checkpoint run fresh",
        change=lambda v, ns: {"resume": True},
    ),
    "worker_heartbeat": _flag(
        "--worker-heartbeat",
        type=float,
        metavar="SECONDS",
        help="pool worker heartbeat cadence (default: 0.25; 0 disables "
        "heartbeat supervision)",
        change=lambda v, ns: {"pool_heartbeat": v or None},
    ),
    "worker_deadline": _flag(
        "--worker-deadline",
        type=float,
        metavar="SECONDS",
        help="hard per-cell wall deadline enforced by the pool supervisor "
        "(catches workers too wedged to honour --cell-timeout)",
        change=lambda v, ns: {"worker_deadline": v},
    ),
    "breaker_threshold": _flag(
        "--breaker-threshold",
        type=int,
        metavar="N",
        help="worker crashes on one cell before it is quarantined as a "
        "poison cell instead of being retried (default: 5)",
        change=lambda v, ns: {"breaker_threshold": v},
    ),
    "keep_going": _flag(
        "--keep-going",
        action="store_true",
        help="complete a sweep even when cells fail: failed cells are "
        "recorded as structured failures and their rows skipped",
        change=lambda v, ns: {"on_error": "keep-going"},
    ),
    "failure_dir": _flag(
        "--failure-dir",
        metavar="DIR",
        help="write a JSON snapshot of each failed cell to DIR (implies "
        "--keep-going)",
        change=lambda v, ns: {"on_error": "keep-going"},
    ),
}


def add_policy_arguments(
    parser: argparse.ArgumentParser, *dests: str
) -> None:
    """Declare the :data:`POLICY_FLAGS` named by ``dests`` on ``parser``."""
    for dest in dests:
        options, kwargs, _ = POLICY_FLAGS[dest]
        parser.add_argument(*options, dest=dest, default=None, **kwargs)


#: The policy of calls that pass none: built from the environment on
#: first use (so a CLI reports an invalid variable as a usage error),
#: replaced for the duration of a :func:`run_policy` block.
_DEFAULT_POLICY: RunPolicy | None = None
#: Keep-going failures of calls run under a :func:`run_policy` scope's
#: policy (``None`` outside any scope: nothing is collected).
_FAILURES: list[CellFailure] | None = None


def default_policy() -> RunPolicy:
    """The policy in effect for calls that pass none."""
    global _DEFAULT_POLICY
    if _DEFAULT_POLICY is None:
        _DEFAULT_POLICY = RunPolicy.from_env()
    return _DEFAULT_POLICY


@contextmanager
def run_policy(
    policy: RunPolicy | None = None, **changes
) -> Iterator[list[CellFailure]]:
    """Make ``policy`` (default: the current one), with ``changes``
    applied, the default for the block; the previous default is restored
    on exit.  Yields the list that collects the structured failures of
    keep-going calls made under it (also drained by :func:`drain_failures`)::

        with common.run_policy(jobs=4, on_error="keep-going") as failures:
            fig11_speedup.run(scale="small")
    """
    global _DEFAULT_POLICY, _FAILURES
    scoped = replace(policy or default_policy(), **changes)
    saved = _DEFAULT_POLICY, _FAILURES
    _DEFAULT_POLICY, _FAILURES = scoped, []
    try:
        yield _FAILURES
    finally:
        _DEFAULT_POLICY, _FAILURES = saved


def set_cache_dir(path: str | pathlib.Path | None) -> None:
    """Point the default policy's run cache at ``path`` (``None``: the
    environment's default)."""
    global _DEFAULT_POLICY
    if path is None:
        path = RunPolicy.from_env().cache_dir
    _DEFAULT_POLICY = replace(default_policy(), cache_dir=path)


#: Worker-process-local hook called with each freshly built/restored
#: simulator (after checkpoints are enabled): the mount point for
#: process-level chaos (:mod:`repro.pool.worker`) and for profilers.
#: Not policy — it never crosses a process boundary.
_CELL_HOOK: Callable | None = None


def set_cell_hook(hook: Callable | None) -> None:
    """Install the simulator hook of this process (pool internals)."""
    global _CELL_HOOK
    _CELL_HOOK = hook


def is_failure(result) -> bool:
    """True when a result slot holds a :class:`CellFailure` record."""
    return isinstance(result, CellFailure)


def drain_failures() -> list[CellFailure]:
    """Return and clear the failures collected by the current
    :func:`run_policy` scope (empty outside any scope)."""
    if _FAILURES is None:
        return []
    failures = list(_FAILURES)
    _FAILURES.clear()
    return failures


# ----------------------------------------------------------------------
# Run cache: one per cache directory
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Content hash of the ``repro`` package source.

    Any change to the simulator invalidates every cached result, so a
    stale cache can never masquerade as fresh output — even between
    version bumps of a development tree.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_version() -> str:
    from repro import __version__

    return f"{__version__}/{_code_fingerprint()}"


def _cache_name(key: tuple) -> str:
    blob = repr((_cache_version(), key)).encode()
    return f"{hashlib.sha256(blob).hexdigest()[:40]}.pkl"


def _quarantine(path: pathlib.Path) -> None:
    """Rename a corrupted cache entry aside and warn, naming the file.

    Quarantining (rather than deleting) keeps the bad bytes around for a
    post-mortem while guaranteeing the entry can never be loaded again.
    """
    corrupt = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, corrupt)
    except OSError:
        return  # raced with another process or read-only dir; best-effort
    warnings.warn(
        f"quarantined corrupted run-cache entry {path} -> {corrupt.name}",
        RuntimeWarning,
        stacklevel=3,
    )


def _touch(path: pathlib.Path) -> None:
    """Refresh an entry's LRU recency: reads count as use."""
    try:
        os.utime(path)
    except OSError:
        pass


def _disk_load(path: pathlib.Path, key: tuple) -> SimulationResult | None:
    try:
        fh = open(path, "rb")
    except OSError:
        return None  # no entry (or unreadable dir): an ordinary miss
    try:
        with fh:
            stored_key, result = pickle.load(fh)
    except Exception:
        # Truncated or bit-rotted pickles can raise nearly anything while
        # unpickling; whatever it was, the entry is unusable.
        _quarantine(path)
        return None
    if stored_key != key or not isinstance(result, SimulationResult):
        return None
    _touch(path)
    return result


def _disk_store(
    path: pathlib.Path, key: tuple, result: SimulationResult
) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump((key, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: concurrent writers can't corrupt
    except OSError:
        pass  # caching is best-effort; an unwritable dir must not fail runs


#: Results a :class:`RunCache` memo keeps, least recently used first out
#: (an evicted entry is then a disk hit).  Above every perfbench
#: workload's cell count, so no benchmark round ever drops one.
MEMO_ENTRIES = 1024


class RunCache:
    """The in-process state of one persistent run-cache directory.

    ``memo`` holds the :data:`MEMO_ENTRIES` most recently used results
    by cache key above the directory, so repeated lookups return the
    *same* object and cost nothing; quota eviction and
    :func:`clear_persistent_cache` drop an entry from both, so a quota
    bounds the memo further.  ``stats`` counts this directory's
    traffic.  Pins keep in-flight entries (the serving layer's) from
    quota eviction, refcounted.  The memo, counters and pins change
    under a lock: the server probes and pins from its event loop while
    results land, are stored and evict on the pool's loop thread.
    Every policy naming the directory shares one instance
    (:func:`run_cache`), however often policies are replaced.
    """

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = directory
        self.memo: OrderedDict[tuple, SimulationResult] = OrderedDict()
        self.stats = dict.fromkeys(
            ("memory_hits", "disk_hits", "misses", "evictions"), 0
        )
        self._pins: dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, outcome: str, n: int = 1) -> None:
        """Add ``n`` to one counter, mirrored into the obs registry."""
        with self._lock:
            self.stats[outcome] += n
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter("experiments.cache", outcome=outcome).inc(n)

    def get(self, key: tuple, policy: RunPolicy) -> SimulationResult | None:
        """The memo's result for ``key``, else the directory's (when the
        policy reads it); counts hits only."""
        with self._lock:
            result = self.memo.get(key)
            if result is not None:
                self.memo.move_to_end(key)
        if result is not None:
            if policy.cache_enabled and policy.cache_quota_bytes is not None:
                # A use the LRU must see, or hot entries would age out.
                _touch(self.directory / _cache_name(key))
            self.count("memory_hits")
        elif policy.cache_enabled:
            result = _disk_load(self.directory / _cache_name(key), key)
            if result is not None:
                self.count("disk_hits")
                self._remember(key, result)
        return result

    def _remember(self, key: tuple, result: SimulationResult) -> None:
        with self._lock:
            self.memo[key] = result
            self.memo.move_to_end(key)
            while len(self.memo) > MEMO_ENTRIES:
                self.memo.popitem(last=False)

    def put(
        self, key: tuple, result: SimulationResult, policy: RunPolicy
    ) -> None:
        self._remember(key, result)
        if policy.cache_enabled:
            _disk_store(self.directory / _cache_name(key), key, result)
            self.enforce_quota(policy.cache_quota_bytes)

    def pin(self, key: tuple) -> None:
        """Protect ``key``'s entry from quota eviction (refcounted)."""
        name = _cache_name(key)
        with self._lock:
            self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, key: tuple) -> None:
        """Drop one pin from ``key``'s entry (missing pins are ignored)."""
        name = _cache_name(key)
        with self._lock:
            count = self._pins.pop(name, 0) - 1
            if count > 0:
                self._pins[name] = count

    def pinned(self) -> int:
        """Number of currently pinned entries."""
        with self._lock:
            return len(self._pins)

    def enforce_quota(self, quota: int | None) -> int:
        """Evict least-recently-used ``*.pkl`` entries beyond ``quota``
        bytes, from the directory and the memo; returns the count.
        Pinned entries are skipped even when that leaves the directory
        over budget."""
        if quota is None or not self.directory.is_dir():
            return 0
        entries = []
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= quota:
            return 0
        with self._lock:
            pinned = set(self._pins)
        evicted = set()
        for _, size, path in sorted(entries, key=lambda e: (e[0], e[2].name)):
            if total <= quota:
                break
            if path.name in pinned:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.add(path.name)
        if evicted:
            with self._lock:
                for key in list(self.memo):
                    if _cache_name(key) in evicted:
                        del self.memo[key]
            self.count("evictions", len(evicted))
        return len(evicted)


#: The one :class:`RunCache` of each cache directory, by absolute path.
_CACHES: dict[str, RunCache] = {}


def run_cache(policy: RunPolicy | None = None) -> RunCache:
    """The :class:`RunCache` of the policy's directory (default: the
    current policy's), found by absolute path."""
    directory = os.path.abspath((policy or default_policy()).cache_dir)
    cache = _CACHES.get(directory)
    if cache is None:
        cache = _CACHES.setdefault(directory, RunCache(pathlib.Path(directory)))
    return cache


def cache_stats(policy: RunPolicy | None = None) -> dict[str, int]:
    """Snapshot of the policy's cache counters (this process's traffic)."""
    return dict(run_cache(policy).stats)


def enforce_cache_quota(policy: RunPolicy | None = None) -> int:
    """Apply the policy's quota to its cache (see
    :meth:`RunCache.enforce_quota`); returns the number of entries
    evicted.  Runs automatically after every store; exposed for
    operators (and the CLIs) to trigger a sweep after lowering the quota.
    Disk and memo hits refresh an entry's recency, so it tracks reads,
    not just writes."""
    policy = policy or default_policy()
    return run_cache(policy).enforce_quota(policy.cache_quota_bytes)


def clear_persistent_cache(policy: RunPolicy | None = None) -> int:
    """Delete every entry in the policy's cache directory, and its memo;
    return the number of files removed."""
    cache = run_cache(policy)
    removed = 0
    if cache.directory.is_dir():
        for pattern in ("*.pkl", "*.pkl.corrupt"):
            for path in cache.directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    cache.memo.clear()
    return removed


def clear_run_cache() -> None:
    """Drop every directory's in-process memo (the persistent cache and
    the counters are untouched), and forget the :class:`RunCache` of
    each directory that no longer exists and holds no pins."""
    for directory, cache in list(_CACHES.items()):
        cache.memo.clear()
        if not cache.directory.is_dir() and not cache.pinned():
            del _CACHES[directory]


def probe_cache(
    spec: RunSpec, use_cache: bool = True, policy: RunPolicy | None = None
) -> SimulationResult | None:
    """Look ``spec`` up in the policy's memo + directory without running
    anything.

    The serving layer's warm fast path: a hit is counted and returned
    immediately (no admission, no batching); a miss returns ``None`` and
    counts nothing — the eventual :func:`run_cells` dispatch records it.
    """
    if not use_cache:
        return None
    policy = policy or default_policy()
    return run_cache(policy).get(_memo_key(policy.apply(spec)), policy)


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _cell_label(spec: RunSpec) -> str:
    """Human-readable cell identity for harness spans."""
    system = spec.preset.name if spec.preset is not None else "config"
    return f"{spec.workload}/{system}@{spec.scale}"


def _spec_digest(spec: RunSpec) -> str:
    """Short stable digest of the memo key: identifies the cell in the
    pool's circuit breaker and chaos plans."""
    return hashlib.sha256(repr(_memo_key(spec)).encode()).hexdigest()[:24]


def _checkpoint_file(spec: RunSpec) -> pathlib.Path:
    """The cell's stable checkpoint path, so the fresh run, the stall
    handler, the pool's crash handoff, and every resume attempt all
    agree on one file.  Keyed by the memo key (which excludes the
    checkpoint fields themselves) without ``max_events``: an event cap
    only decides where one drive stops, not which states the run passes
    through, so a capped leg and its uncapped resume share the file."""
    digest = _spec_digest(replace(spec, max_events=None))
    return pathlib.Path(spec.checkpoint_dir) / f"{spec.workload}-{digest}.ckpt"


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
    path = None if spec.checkpoint_dir is None else _checkpoint_file(spec)
    sim = None
    if path is not None and spec.resume and path.exists():
        from repro.checkpoint import try_load

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
            _checkpoint_file(spec).unlink()
        except OSError:
            pass  # best-effort: already gone, or a read-only directory
    return result


def _simulate_spec(spec: RunSpec) -> SimulationResult:
    """Execute one resolved cell.  Runs in worker processes too, so it
    must stay a module-level function of picklable arguments.

    The wall-clock budget rides inside the simulation (an engine
    watchdog), so per-cell timeouts work identically in the serial path
    and in forked workers — no executor-level cancellation needed."""
    return drive_cell(spec, *open_cell(spec))


def _after_error(
    spec: RunSpec, exc: BaseException, attempts: int, policy: RunPolicy
) -> RunSpec | CellFailure:
    """The one retry rule, for cells run in process and in the pool.

    ``exc`` ended attempt number ``attempts``.  Returns the spec to
    retry with, or the cell's :class:`CellFailure` — *raised* (chained
    to ``exc``) under the ``raise`` policy, so a sweep still aborts
    loudly.  A transient ``OSError`` retries while the budget lasts, and
    so does a watchdog stall that left a checkpoint: its retry *resumes*
    the checkpoint, so each attempt makes forward progress even under a
    tight budget.  Any other ``ReproError`` (a deterministic error would
    simply reproduce) and ``MemoryError`` (a cell that exhausts memory
    will exhaust it again) fail at once; failures the pool built
    (poison cells) arrive structured.  Anything outside
    that taxonomy propagates: it is a bug, not a cell failure.
    """
    if not isinstance(exc, (ReproError, MemoryError, OSError)):
        raise exc
    stalled = (
        isinstance(exc, SimulationStalledError)
        and spec.checkpoint_dir is not None
        and getattr(exc, "checkpoint_path", None) is not None
    )
    if attempts <= policy.retries and (stalled or isinstance(exc, OSError)):
        return replace(spec, resume=True) if stalled else spec
    failure = exc
    if not isinstance(exc, CellFailure):
        failure = CellFailure(
            str(exc) or type(exc).__name__,
            workload=spec.workload,
            system=spec.preset.name if spec.preset is not None else "config",
            attempts=attempts,
            error_type=type(exc).__qualname__,
            scale=spec.scale,
        )
        # The simulator attaches a flight-recorder dump (recent batches
        # + engine events) to the exception when analytics is on; carry
        # it so the runner's failure snapshot includes the forensics.  A
        # stall that managed to checkpoint also names the file, so the
        # operator can resume the cell by hand after the budget ran out.
        failure.flight_recorder = getattr(exc, "flight_recorder", None)
        failure.checkpoint_path = getattr(exc, "checkpoint_path", None)
    if policy.on_error != "keep-going":
        raise failure from (None if failure is exc else exc)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter(
            "experiments.cell_failures", error=failure.error_type
        ).inc()
    if policy.progress:
        sys.stderr.write(f"\n  [cell failed] {failure.summary()}\n")
        sys.stderr.flush()
    return failure


def submit_cell(
    spec: RunSpec,
    policy: RunPolicy,
    pool=None,
    use_cache: bool = True,
) -> Future:
    """Dispatch one cache-missing cell (``policy`` already applied).

    Returns a :class:`~concurrent.futures.Future` that resolves to the
    cell's :class:`SimulationResult`, or, under ``keep-going``, to its
    :class:`CellFailure` (under ``raise`` the future raises it; errors
    outside the taxonomy propagate through it).  The result is stored in
    the run cache (when ``use_cache``) the moment it lands.  With no
    ``pool`` every attempt runs in this thread, and the future is done
    on return; with one, every attempt — retries included — runs on the
    pool, and retry backoff waits on a timer thread.
    """
    cache = run_cache(policy)
    key = _memo_key(spec)
    cache.count("misses")
    outcome: Future = Future()

    def attempt(spec: RunSpec, attempts: int) -> None:
        future: Future = Future()
        try:
            if pool is None:
                future.set_result(_simulate_spec(spec))
            else:
                future = pool.submit(spec)
        except Exception as exc:
            future.set_exception(exc)
        future.add_done_callback(lambda f: landed(f, spec, attempts))

    def landed(future: Future, spec: RunSpec, attempts: int) -> None:
        try:
            exc = future.exception()
            if exc is None:
                result = future.result()
                if use_cache:
                    cache.put(key, result, policy)
                outcome.set_result(result)
                return
            retry = _after_error(spec, exc, attempts, policy)
        except BaseException as err:
            outcome.set_exception(err)
            return
        if isinstance(retry, CellFailure):
            outcome.set_result(retry)
            return
        delay = policy.retry_backoff * 2 ** (attempts - 1)
        if pool is None or not delay:
            _time.sleep(delay)
            attempt(retry, attempts + 1)
        else:
            timer = threading.Timer(delay, attempt, (retry, attempts + 1))
            timer.daemon = True
            timer.start()

    attempt(spec, 1)
    return outcome


def run_cells(
    cells: Sequence[RunSpec],
    use_cache: bool = True,
    label: str = "cells",
    on_error: str | None = None,
    pool=None,
    policy: RunPolicy | None = None,
) -> list[SimulationResult]:
    """Run every cell, in parallel for cache misses; results keep order.

    ``policy`` (default: the current :func:`run_policy` scope's) is
    applied to every cell here, in the calling process: cache, workers,
    chaos, invariants, timeouts, checkpoints, retries, and on-error.
    ``on_error`` overrides the policy's on-error rule for this call.

    The fan-out is transparent: each missing cell runs exactly the
    simulation the serial path would (same parameters, same seeds, fresh
    deterministic engine), and results are merged back by index — so
    ``jobs=N`` output is bit-identical to ``jobs=1``.  Every missing
    cell goes through :func:`submit_cell`, so each result reaches the
    run cache as soon as it lands.

    With ``policy.jobs > 1`` (or a caller-owned ``pool``), every attempt
    of every missing cell runs in a crash-isolated
    :class:`repro.pool.SupervisedPool` (heartbeats, SIGTERM → SIGKILL
    escalation, restart with backoff, checkpoint-based handoff of
    interrupted cells, per-key circuit breaker, an in-place heal when no
    worker can be kept alive); otherwise the cells run here, one by one.

    Under ``keep-going`` a persistently failing cell's slot holds a
    :class:`~repro.errors.CellFailure` instead of a result, and the sweep
    completes with partial data.  Calls that pass no ``policy`` also
    report those failures to the enclosing :func:`run_policy` scope.
    """
    scoped = policy is None
    policy = default_policy() if scoped else policy
    if on_error is not None:
        policy = replace(policy, on_error=on_error)
    cells = [policy.apply(cell) for cell in cells]
    cache = run_cache(policy)
    results: list[SimulationResult | None] = [None] * len(cells)
    pending: list[int] = []
    for i, cell in enumerate(cells):
        hit = cache.get(_memo_key(cell), policy) if use_cache else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)
    obs = _obs_current()
    started = _time.monotonic()
    done = 0

    def report(final: bool = False) -> None:
        # A single cell (run_system, run_config) has no progress to show.
        if not policy.progress or len(cells) < 2:
            return
        elapsed = _time.monotonic() - started
        end = "\n" if final else "\r"
        sys.stderr.write(
            f"  [{label}] {len(cells) - len(pending) + done}/{len(cells)} "
            f"cells ({len(cells) - len(pending)} cached, "
            f"{done} run, {elapsed:.1f}s){end}"
        )
        sys.stderr.flush()

    def on_landed(_: Future) -> None:
        nonlocal done
        done += 1
        report()

    report()
    if pending and (pool is not None or policy.jobs > 1):
        # Worker processes have no obs session of their own: the fan-out
        # is summarised as one harness span (per-cell sim tracing needs
        # the serial path).
        fan_out = nullcontext() if obs is None else obs.tracer.wall_span(
            "experiments", f"{label} fan-out", cells=len(pending),
            jobs=policy.jobs,
        )
        own_pool = None
        if pool is None:
            from repro.pool import SupervisedPool

            pool = own_pool = SupervisedPool(
                policy.pool_config(workers=min(policy.jobs, len(pending)))
            )
        try:
            with fan_out:
                futures = [
                    submit_cell(cells[i], policy, pool, use_cache)
                    for i in pending
                ]
                for future in futures:
                    future.add_done_callback(on_landed)
                for i, future in zip(pending, futures):
                    results[i] = future.result()
        finally:
            if own_pool is not None:
                own_pool.close()
    else:
        for i in pending:
            span = nullcontext() if obs is None else obs.tracer.wall_span(
                "experiments", _cell_label(cells[i]), group=label
            )
            with span:
                future = submit_cell(cells[i], policy, None, use_cache)
            results[i] = future.result()
            on_landed(future)
    if cells:
        report(final=True)

    if scoped and _FAILURES is not None:
        _FAILURES.extend(r for r in results if isinstance(r, CellFailure))
    return results  # type: ignore[return-value]


def run_system(
    preset: SystemPreset,
    workload: Workload | str,
    scale: str = "tiny",
    ratio: float | None = None,
    fault_handling_cycles: int | None = None,
    max_events: int = MAX_EVENTS,
    seed: int = 0,
    use_cache: bool = True,
    policy: RunPolicy | None = None,
) -> SimulationResult:
    """Build (or reuse) a workload and run it under ``preset``."""
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        preset=preset,
        scale=scale,
        ratio=ratio,
        fault_handling_cycles=fault_handling_cycles,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache, policy=policy)[0]


def run_config(
    workload: Workload | str,
    config: SimConfig,
    scale: str = "tiny",
    seed: int = 0,
    max_events: int = MAX_EVENTS,
    use_cache: bool = True,
    policy: RunPolicy | None = None,
) -> SimulationResult:
    """Run an explicit :class:`SimConfig` (ablations) through the cache.

    The cache key hashes the full config contents, so two distinct
    configs never collide even if they came from the same preset.
    """
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        config=config,
        scale=scale,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache, policy=policy)[0]


def run_matrix(
    presets: Sequence[SystemPreset],
    workloads: Sequence[str],
    scale: str,
    ratio: float | None = None,
    label: str | None = None,
    policy: RunPolicy | None = None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run every (workload, preset) pair; keys are (workload, preset.name).

    Cells missing from the cache fan out across ``policy.jobs`` worker
    processes (default policy: ``REPRO_JOBS``, i.e. serial).
    """
    use_cache = kwargs.pop("use_cache", True)
    cells = [
        RunSpec(
            workload=name,
            preset=preset,
            scale=scale,
            ratio=ratio,
            **kwargs,
        )
        for name in workloads
        for preset in presets
    ]
    results = run_cells(
        cells,
        use_cache=use_cache,
        label=label or "matrix",
        policy=policy,
    )
    return {
        (cell.workload, cell.preset.name): result
        for cell, result in zip(cells, results)
    }
