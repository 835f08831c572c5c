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
  ``REPRO_CACHE=0``, ``--no-cache``, or :func:`set_cache_enabled`.
* **Supervised parallel fan-out** — :func:`run_cells` (and
  :func:`run_matrix` on top of it) dispatches cache-missing cells to a
  crash-isolated :class:`repro.pool.SupervisedPool`: heartbeats, SIGTERM
  → SIGKILL escalation for hung workers, restart with backoff, and
  checkpoint-based handoff of interrupted cells (a crashed cell resumes
  from its last batch boundary in a fresh worker).  Results are merged
  back by cell index, so a parallel run is bit-identical to the serial
  one.  Select workers with ``--jobs``, ``REPRO_JOBS``, or
  :func:`set_default_jobs` (default: serial).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import sys
import threading
import time as _time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.chaos.config import ChaosConfig, split_process_chaos
from repro.errors import (
    CellFailure,
    PoolBrokenError,
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

    def resolved(self) -> "RunSpec":
        """Canonicalise so equal runs always produce equal cache keys:
        upper-case the workload name (the registry is case-insensitive),
        fill the scale-calibrated default ratio, apply the module-wide
        chaos/invariants/timeout defaults (:func:`set_default_chaos`,
        :func:`set_default_invariants`, :func:`set_cell_timeout`), and
        split process-level chaos kinds out of ``chaos`` into
        ``pool_chaos`` so they can never contaminate ``SimConfig`` or a
        cache key."""
        spec = self
        if spec.workload != spec.workload.upper():
            spec = replace(spec, workload=spec.workload.upper())
        if spec.ratio is None and spec.config is None:
            spec = replace(spec, ratio=half_ratio(spec.scale))
        if spec.chaos is None and _DEFAULT_CHAOS is not None:
            spec = replace(spec, chaos=_DEFAULT_CHAOS)
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
        if spec.pool_chaos is None and _POOL_CHAOS is not None:
            spec = replace(spec, pool_chaos=_POOL_CHAOS)
        if _DEFAULT_INVARIANTS and not spec.check_invariants:
            spec = replace(spec, check_invariants=True)
        if spec.wall_budget_seconds is None and _CELL_TIMEOUT is not None:
            spec = replace(spec, wall_budget_seconds=_CELL_TIMEOUT)
        if spec.checkpoint_dir is None and _CHECKPOINT_DIR is not None:
            spec = replace(
                spec,
                checkpoint_dir=_CHECKPOINT_DIR,
                checkpoint_every=_CHECKPOINT_EVERY,
                resume=_CHECKPOINT_RESUME,
            )
        return spec


def _memo_key(spec: RunSpec) -> tuple:
    """In-process cache key (matches the legacy ``_RUN_CACHE`` key plus
    ``max_events`` — a capped partial run must never satisfy a full one).
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
# Persistent on-disk cache
# ----------------------------------------------------------------------
_CACHE_ENABLED = os.environ.get("REPRO_CACHE", "1") != "0"
_CACHE_DIR: pathlib.Path | None = None
_DEFAULT_JOBS = max(1, int(os.environ.get("REPRO_JOBS", "1") or "1"))
_PROGRESS = False

# ---- Robustness policy (see docs/robustness.md) ----------------------
#: Chaos plan applied to every cell whose spec doesn't carry its own.
_DEFAULT_CHAOS: ChaosConfig | None = None
#: Invariant checking applied to every cell by default.
_DEFAULT_INVARIANTS = False
#: Per-cell wall-clock budget in seconds (None: unbounded).
_CELL_TIMEOUT: float | None = None
#: Checkpoint policy applied to every cell whose spec doesn't carry its
#: own (see :func:`set_checkpoint_policy`).
_CHECKPOINT_DIR: str | None = None
_CHECKPOINT_EVERY = 1
_CHECKPOINT_RESUME = False
#: How many times a cell is re-run after a *transient* failure, and the
#: base of the exponential backoff between attempts.
_MAX_RETRIES = 1
_RETRY_BACKOFF = 0.25
#: What to do with a cell that keeps failing: "raise" aborts the sweep
#: (legacy behaviour); "keep-going" records a CellFailure in its slot so
#: the sweep completes with partial data.
_ON_ERROR = "raise"

#: Errors worth retrying: infrastructure hiccups, not simulator states.
#: A deterministic simulation error would simply reproduce, so
#: :class:`~repro.errors.ReproError` is deliberately absent.  So is
#: ``MemoryError``: a cell that exhausts memory will exhaust it again —
#: it surfaces as a structured :class:`~repro.errors.CellFailure`
#: instead of burning the retry budget.  Pool-wide breakage
#: (:class:`~repro.errors.PoolBrokenError`) is likewise not retried per
#: cell: :func:`run_cells` rebuilds the pool once and resubmits only the
#: affected cells.
_TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (OSError,)

# ---- Supervised pool policy (see docs/robustness.md) -----------------
#: Process-level chaos applied to every cell whose spec doesn't carry
#: its own (``worker-kill`` / ``worker-hang`` / ``worker-slow``).
_POOL_CHAOS: ChaosConfig | None = None
#: Heartbeat interval for pool workers (seconds).
_POOL_HEARTBEAT = 0.25
#: Hard per-cell wall deadline enforced by the pool supervisor
#: (``None``: rely on the in-simulation watchdog only).
_WORKER_DEADLINE: float | None = None
#: Crashes on one memo key before the pool's circuit breaker quarantines
#: it as a :class:`~repro.errors.PoisonCellError`.
_BREAKER_THRESHOLD = 5
#: Worker-process-local hook called with each freshly built/restored
#: simulator (after checkpoints are enabled): the mount point for
#: process-level chaos (:mod:`repro.pool.worker`).  Never set in the
#: parent process.
_CELL_HOOK: Callable | None = None

#: Structured failures collected while ``_ON_ERROR == "keep-going"``.
FAILURES: list[CellFailure] = []

#: Per-process counters for observability (see :func:`cache_stats`).
CACHE_STATS = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "evictions": 0}

# ---- Cache quota / LRU eviction (see docs/serving.md) ----------------
#: Size budget for the persistent cache directory in bytes; ``None``
#: leaves the cache unbounded (the historical behaviour).
_CACHE_QUOTA_BYTES: int | None = None
_env_quota = os.environ.get("REPRO_CACHE_QUOTA_MB")
if _env_quota:
    _CACHE_QUOTA_BYTES = max(1, int(float(_env_quota) * 1024 * 1024))
#: Cache files that must never be evicted while pinned (in-flight server
#: entries), as ``{file name: pin count}``; guarded by ``_PIN_LOCK``
#: because the serving layer pins from the event loop while eviction
#: runs on a worker thread.
_PINNED_PATHS: dict[str, int] = {}
_PIN_LOCK = threading.Lock()


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable the persistent on-disk run cache."""
    global _CACHE_ENABLED
    _CACHE_ENABLED = enabled


def set_cache_dir(path: str | pathlib.Path | None) -> None:
    """Override the cache directory (``None`` restores the default)."""
    global _CACHE_DIR
    _CACHE_DIR = pathlib.Path(path) if path is not None else None


def set_default_jobs(jobs: int) -> None:
    """Default worker count for :func:`run_cells` / :func:`run_matrix`."""
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = max(1, int(jobs))


def set_progress(enabled: bool) -> None:
    """Toggle per-cell progress lines on stderr during fan-outs."""
    global _PROGRESS
    _PROGRESS = enabled


def set_default_chaos(chaos: ChaosConfig | None) -> None:
    """Apply ``chaos`` to every subsequent cell (``None`` disables).

    The config may freely mix simulation-level and process-level kinds:
    :meth:`RunSpec.resolved` splits them, so ``worker-kill`` and friends
    reach the supervised pool while the rest reaches ``SimConfig``.
    """
    global _DEFAULT_CHAOS
    _DEFAULT_CHAOS = chaos


def set_pool_chaos(chaos: ChaosConfig | None) -> None:
    """Process-level chaos for every subsequent pooled cell.

    Unlike :func:`set_default_chaos` this never touches cache keys or
    ``SimConfig`` — it feeds :func:`repro.chaos.process.plan_worker_chaos`
    in the supervised pool.
    """
    global _POOL_CHAOS
    _POOL_CHAOS = chaos


def set_pool_policy(
    heartbeat: float | None = None,
    deadline: float | None = None,
    breaker_threshold: int | None = None,
) -> None:
    """Tune the supervised pool built by :func:`run_cells`.

    Arguments left ``None`` keep their current values, except
    ``deadline`` which is an absolute setting (pass ``0`` to clear it).
    """
    global _POOL_HEARTBEAT, _WORKER_DEADLINE, _BREAKER_THRESHOLD
    if heartbeat is not None:
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        _POOL_HEARTBEAT = float(heartbeat)
    if deadline is not None:
        _WORKER_DEADLINE = float(deadline) if deadline > 0 else None
    if breaker_threshold is not None:
        if breaker_threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        _BREAKER_THRESHOLD = int(breaker_threshold)


def set_cell_hook(hook: Callable | None) -> None:
    """Install the worker-process simulator hook (pool internals)."""
    global _CELL_HOOK
    _CELL_HOOK = hook


def set_default_invariants(enabled: bool) -> None:
    """Run invariant checks in every subsequent cell."""
    global _DEFAULT_INVARIANTS
    _DEFAULT_INVARIANTS = bool(enabled)


def set_cell_timeout(seconds: float | None) -> None:
    """Wall-clock budget per cell (``None``: unbounded)."""
    global _CELL_TIMEOUT
    if seconds is not None and seconds <= 0:
        raise ValueError("cell timeout must be positive (or None)")
    _CELL_TIMEOUT = seconds


def set_checkpoint_policy(
    directory: str | pathlib.Path | None,
    every: int = 1,
    resume: bool = False,
) -> None:
    """Checkpoint every cell into ``directory`` every ``every`` batches.

    With ``resume``, a cell whose checkpoint file already exists continues
    from it instead of starting over — the mechanism behind resumable
    sweeps (a killed/stalled sweep rerun with ``--resume`` picks up every
    in-flight cell from its last batch boundary).  ``None`` disables
    checkpointing entirely.
    """
    global _CHECKPOINT_DIR, _CHECKPOINT_EVERY, _CHECKPOINT_RESUME
    if directory is None:
        _CHECKPOINT_DIR, _CHECKPOINT_EVERY, _CHECKPOINT_RESUME = None, 1, False
        return
    if every <= 0:
        raise ValueError("checkpoint interval must be positive")
    _CHECKPOINT_DIR = str(directory)
    _CHECKPOINT_EVERY = int(every)
    _CHECKPOINT_RESUME = bool(resume)


def set_retry_policy(retries: int, backoff: float = 0.25) -> None:
    """Retry transiently failing cells ``retries`` times with exponential
    backoff starting at ``backoff`` seconds."""
    global _MAX_RETRIES, _RETRY_BACKOFF
    if retries < 0:
        raise ValueError("retries must be non-negative")
    _MAX_RETRIES = int(retries)
    _RETRY_BACKOFF = max(0.0, float(backoff))


def set_on_error(policy: str) -> None:
    """``"raise"`` aborts a sweep on the first persistent cell failure;
    ``"keep-going"`` records a :class:`~repro.errors.CellFailure` in the
    failed cell's result slot and completes the sweep."""
    global _ON_ERROR
    if policy not in ("raise", "keep-going"):
        raise ValueError(f"unknown on-error policy {policy!r}")
    _ON_ERROR = policy


def is_failure(result) -> bool:
    """True when a result slot holds a :class:`CellFailure` record."""
    return isinstance(result, CellFailure)


def drain_failures() -> list[CellFailure]:
    """Return and clear the failures collected under ``keep-going``."""
    failures = list(FAILURES)
    FAILURES.clear()
    return failures


def set_cache_quota(max_bytes: int | None) -> None:
    """Bound the persistent cache directory to ``max_bytes`` of entries.

    When a store pushes the directory past the quota, the least recently
    *used* entries are evicted first (disk hits refresh an entry's mtime,
    so recency tracks reads, not just writes).  Pinned entries
    (:func:`pin_cache_entry` — the serving layer's in-flight results) are
    never evicted.  ``None`` restores the historical unbounded behaviour.
    """
    global _CACHE_QUOTA_BYTES
    if max_bytes is not None and max_bytes <= 0:
        raise ValueError("cache quota must be positive (or None)")
    _CACHE_QUOTA_BYTES = max_bytes


def cache_quota() -> int | None:
    """The active cache size budget in bytes (``None``: unbounded)."""
    return _CACHE_QUOTA_BYTES


def pin_cache_entry(key: tuple) -> None:
    """Protect ``key``'s cache file from quota eviction (refcounted)."""
    name = _cache_path(key).name
    with _PIN_LOCK:
        _PINNED_PATHS[name] = _PINNED_PATHS.get(name, 0) + 1


def unpin_cache_entry(key: tuple) -> None:
    """Drop one pin from ``key``'s cache file (missing pins are ignored)."""
    name = _cache_path(key).name
    with _PIN_LOCK:
        count = _PINNED_PATHS.get(name, 0) - 1
        if count > 0:
            _PINNED_PATHS[name] = count
        else:
            _PINNED_PATHS.pop(name, None)


def pinned_cache_entries() -> int:
    """Number of currently pinned cache files (for stats/tests)."""
    with _PIN_LOCK:
        return len(_PINNED_PATHS)


def enforce_cache_quota() -> int:
    """Evict least-recently-used ``*.pkl`` entries beyond the quota.

    Returns the number of files removed.  Runs automatically after every
    store; exposed for operators (and the serving layer) to trigger a
    sweep after lowering the quota.  Pinned entries are skipped even when
    that leaves the directory over budget.
    """
    if _CACHE_QUOTA_BYTES is None:
        return 0
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    entries = []
    total = 0
    for path in directory.glob("*.pkl"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if total <= _CACHE_QUOTA_BYTES:
        return 0
    with _PIN_LOCK:
        pinned = set(_PINNED_PATHS)
    evicted = 0
    for _, size, path in sorted(entries, key=lambda e: (e[0], e[2].name)):
        if total <= _CACHE_QUOTA_BYTES:
            break
        if path.name in pinned:
            continue
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
    if evicted:
        CACHE_STATS["evictions"] += evicted
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter(
                "experiments.cache", outcome="evictions"
            ).inc(evicted)
    return evicted


def cache_dir() -> pathlib.Path:
    """The active persistent-cache directory (not necessarily created)."""
    if _CACHE_DIR is not None:
        return _CACHE_DIR
    env = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(env) if env else pathlib.Path(".repro-cache")


def cache_stats() -> dict[str, int]:
    """Snapshot of this process's cache counters."""
    return dict(CACHE_STATS)


def reset_cache_stats() -> None:
    for key in CACHE_STATS:
        CACHE_STATS[key] = 0


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


def _cache_path(key: tuple) -> pathlib.Path:
    blob = repr((_cache_version(), key)).encode()
    return cache_dir() / f"{hashlib.sha256(blob).hexdigest()[:40]}.pkl"


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


def _disk_load(key: tuple) -> SimulationResult | None:
    path = _cache_path(key)
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
    try:
        os.utime(path)  # refresh LRU recency: reads count as use
    except OSError:
        pass
    return result


def _disk_store(key: tuple, result: SimulationResult) -> None:
    path = _cache_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump((key, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: concurrent writers can't corrupt
    except OSError:
        return  # caching is best-effort; an unwritable dir must not fail runs
    enforce_cache_quota()


def clear_persistent_cache() -> int:
    """Delete every entry in the active cache directory; return the count."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for pattern in ("*.pkl", "*.pkl.corrupt"):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed


#: Completed runs for this process, keyed by the full run parameters.
#: Layered above the disk cache so repeated lookups return the *same*
#: object (and cost nothing) within a session.
_RUN_CACHE: dict[tuple, SimulationResult] = {}


def clear_run_cache() -> None:
    """Drop the in-process memo (the persistent cache is untouched)."""
    _RUN_CACHE.clear()


def _count_cache(outcome: str) -> None:
    """Mirror one cache outcome into CACHE_STATS and the obs registry."""
    CACHE_STATS[outcome] += 1
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("experiments.cache", outcome=outcome).inc()


def _cache_get(key: tuple, use_cache: bool) -> SimulationResult | None:
    if not use_cache:
        return None
    if key in _RUN_CACHE:
        _count_cache("memory_hits")
        return _RUN_CACHE[key]
    if _CACHE_ENABLED:
        result = _disk_load(key)
        if result is not None:
            _count_cache("disk_hits")
            _RUN_CACHE[key] = result
            return result
    return None


def _cache_put(key: tuple, result: SimulationResult, use_cache: bool) -> None:
    if not use_cache:
        return
    _RUN_CACHE[key] = result
    if _CACHE_ENABLED:
        _disk_store(key, result)


def probe_cache(
    spec: RunSpec, use_cache: bool = True
) -> SimulationResult | None:
    """Look ``spec`` up in the memo + disk cache without running anything.

    The serving layer's warm fast path: a hit is counted and returned
    immediately (no admission, no batching); a miss returns ``None`` and
    counts nothing — the eventual :func:`run_cells` dispatch records it.
    """
    return _cache_get(_memo_key(spec.resolved()), use_cache)


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _workload_cached(name: str, scale: str, seed: int) -> Workload:
    """Per-process workload memo (traces are immutable, sharing is safe)."""
    return build_workload(name, scale=scale, seed=seed)


def _cell_label(spec: RunSpec) -> str:
    """Human-readable cell identity for harness spans."""
    system = spec.preset.name if spec.preset is not None else "config"
    return f"{spec.workload}/{system}@{spec.scale}"


def _spec_digest(spec: RunSpec) -> str:
    """Short stable digest of the memo key: names checkpoint files and
    identifies the cell in the pool's circuit breaker and chaos plans."""
    return hashlib.sha256(repr(_memo_key(spec)).encode()).hexdigest()[:24]


def _checkpoint_file(spec: RunSpec) -> pathlib.Path:
    """The cell's stable checkpoint path: keyed by the memo key (which
    excludes the checkpoint fields themselves), so the fresh run, the
    stall handler, the pool's crash handoff, and every resume attempt
    all agree on one file."""
    digest = _spec_digest(spec)
    return pathlib.Path(spec.checkpoint_dir) / f"{spec.workload}-{digest}.ckpt"


def _discard_checkpoint(path: pathlib.Path) -> None:
    """Remove a cell's checkpoint after it completes (best-effort): a
    finished cell must never be resumed from a stale mid-run snapshot."""
    try:
        path.unlink()
    except OSError:
        pass


def _simulate_spec(spec: RunSpec) -> SimulationResult:
    """Execute one cell from scratch.  Runs in worker processes too, so it
    must stay a module-level function of picklable arguments.

    The wall-clock budget rides inside the simulation (an engine
    watchdog), so per-cell timeouts work identically in the serial path
    and in forked workers — no executor-level cancellation needed.

    With a checkpoint directory set, the cell writes resumable snapshots
    at batch boundaries (and when the watchdog stalls it); with
    ``spec.resume``, an existing usable checkpoint short-circuits the
    fresh build and the run continues from its last batch boundary —
    bit-identical to the uninterrupted run.  Unusable checkpoints
    (truncated, version-skewed) degrade to a fresh run with a warning."""
    checkpoint_file: pathlib.Path | None = None
    if spec.checkpoint_dir is not None:
        checkpoint_file = _checkpoint_file(spec)
        if spec.resume and checkpoint_file.exists():
            from repro.checkpoint import try_load

            checkpoint = try_load(checkpoint_file)
            if checkpoint is not None:
                sim = checkpoint.restore()
                sim.enable_checkpoints(
                    spec.checkpoint_dir,
                    every=spec.checkpoint_every,
                    basename=checkpoint_file.stem,
                )
                if _CELL_HOOK is not None:
                    _CELL_HOOK(sim)
                result = sim.resume(
                    max_events=spec.max_events,
                    wall_budget_seconds=spec.wall_budget_seconds,
                )
                _discard_checkpoint(checkpoint_file)
                return result
    workload = _workload_cached(spec.workload, spec.scale, spec.seed)
    if spec.config is not None:
        config = spec.config
        if spec.chaos is not None or spec.check_invariants:
            from dataclasses import replace as _replace

            config = _replace(
                config,
                chaos=spec.chaos if spec.chaos is not None else config.chaos,
                check_invariants=spec.check_invariants
                or config.check_invariants,
            )
    else:
        config = spec.preset.configure(
            workload,
            ratio=spec.ratio,
            fault_handling_cycles=spec.fault_handling_cycles,
            chaos=spec.chaos,
            check_invariants=spec.check_invariants,
        )
    sim = GpuUvmSimulator(workload, config)
    if checkpoint_file is not None:
        sim.enable_checkpoints(
            spec.checkpoint_dir,
            every=spec.checkpoint_every,
            basename=checkpoint_file.stem,
        )
    if _CELL_HOOK is not None:
        _CELL_HOOK(sim)
    result = sim.run(
        max_events=spec.max_events,
        wall_budget_seconds=spec.wall_budget_seconds,
    )
    if checkpoint_file is not None:
        _discard_checkpoint(checkpoint_file)
    return result


def _record_failure(
    spec: RunSpec,
    exc: BaseException,
    attempts: int,
    on_error: str | None = None,
) -> CellFailure:
    """Convert a persistently failing cell into a structured record.

    Under the default ``raise`` policy the record is *raised* (chained to
    the original error) so a sweep still aborts loudly; under
    ``keep-going`` it is appended to :data:`FAILURES` and returned to sit
    in the cell's result slot."""
    failure = CellFailure(
        str(exc) or type(exc).__name__,
        workload=spec.workload,
        system=spec.preset.name if spec.preset is not None else "config",
        attempts=attempts,
        error_type=type(exc).__qualname__,
        scale=spec.scale,
    )
    # The simulator attaches a flight-recorder dump (recent batches +
    # engine events) to the exception when analytics is on; carry it so
    # the runner's failure snapshot includes the forensics.  A stall that
    # managed to checkpoint also names the file, so the operator can
    # resume the cell by hand even after the retry budget ran out.
    failure.flight_recorder = getattr(exc, "flight_recorder", None)
    failure.checkpoint_path = getattr(exc, "checkpoint_path", None)
    return _deliver_failure(failure, on_error, cause=exc)


def _deliver_failure(
    failure: CellFailure,
    on_error: str | None,
    cause: BaseException | None = None,
) -> CellFailure:
    """Apply the on-error policy to a structured failure record.

    Shared by :func:`_record_failure` (failures built here from raw
    exceptions) and the pool path (failures built by the supervisor —
    poison cells — that arrive pre-structured)."""
    if (on_error or _ON_ERROR) != "keep-going":
        raise failure from cause
    if on_error is None:
        # Only the module-wide policy accumulates into FAILURES (drained
        # by the CLI's sweep report); per-call keep-going callers (the
        # serving layer) receive failures in their result slots instead.
        FAILURES.append(failure)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter(
            "experiments.cell_failures", error=failure.error_type
        ).inc()
    if _PROGRESS:
        sys.stderr.write(f"\n  [cell failed] {failure.summary()}\n")
        sys.stderr.flush()
    return failure


def _resumable_stall(exc: BaseException | None, spec: RunSpec) -> bool:
    """A watchdog stall that left a checkpoint behind is worth retrying:
    the retry resumes from the checkpoint instead of starting over, so
    each attempt makes forward progress even under a tight budget."""
    return (
        isinstance(exc, SimulationStalledError)
        and spec.checkpoint_dir is not None
        and getattr(exc, "checkpoint_path", None) is not None
    )


def _run_one(
    spec: RunSpec,
    prior: BaseException | None = None,
    on_error: str | None = None,
) -> SimulationResult | CellFailure:
    """Run one cell under the retry/failure policy.

    ``prior`` is an error the cell already produced elsewhere (a worker
    process): it counts as the first attempt, so the bounded-retry budget
    is shared between the parallel and serial paths.  Transient
    infrastructure errors retry with exponential backoff; deterministic
    simulator errors fail immediately (re-running would reproduce them) —
    except a checkpointed stall, which retries *resuming* from the
    checkpoint; anything outside the taxonomy propagates — it is a bug,
    not a cell failure.  ``on_error`` overrides the module-wide policy
    for this call (the serving layer runs keep-going batches without
    touching the CLI's global state).
    """
    attempts = 0
    last = prior
    if last is not None:
        attempts = 1
        if _resumable_stall(last, spec):
            spec = replace(spec, resume=True)
    while last is None or (
        (isinstance(last, _TRANSIENT_ERRORS) or _resumable_stall(last, spec))
        and attempts <= _MAX_RETRIES
    ):
        if last is not None and _RETRY_BACKOFF:
            _time.sleep(_RETRY_BACKOFF * (2 ** (attempts - 1)))
        attempts += 1
        try:
            return _simulate_spec(spec)
        except (ReproError, MemoryError, *_TRANSIENT_ERRORS) as exc:
            # MemoryError is caught (it becomes a structured CellFailure)
            # but never retried: a cell that exhausts memory will simply
            # exhaust it again.
            last = exc
            if _resumable_stall(exc, spec) and not spec.resume:
                spec = replace(spec, resume=True)
    return _record_failure(spec, last, attempts, on_error)


def run_cells(
    cells: Sequence[RunSpec],
    jobs: int | None = None,
    use_cache: bool = True,
    label: str = "cells",
    on_error: str | None = None,
    pool=None,
) -> list[SimulationResult]:
    """Run every cell, in parallel for cache misses; results keep order.

    The fan-out is transparent: each missing cell runs exactly the
    simulation the serial path would (same parameters, same seeds, fresh
    deterministic engine), and results are merged back by index — so
    ``jobs=N`` output is bit-identical to ``jobs=1``.

    Parallel cells execute in a crash-isolated
    :class:`repro.pool.SupervisedPool` (heartbeats, SIGTERM → SIGKILL
    escalation, restart with backoff, checkpoint-based handoff of
    interrupted cells, per-key circuit breaker).  Pass ``pool`` to run
    on a caller-owned long-lived pool (the serving layer); otherwise an
    ephemeral pool is built for the call whenever ``jobs > 1`` leaves
    more than one cache miss.  If the pool itself breaks
    (:class:`~repro.errors.PoolBrokenError`), it is rebuilt once and
    only the affected cells are resubmitted — surviving results are
    kept and no per-cell retry budget is burned.

    Failing cells follow the retry/on-error policy (:func:`set_retry_policy`,
    :func:`set_on_error`): under ``keep-going`` a persistently failing
    cell's slot holds a :class:`~repro.errors.CellFailure` instead of a
    result, and the sweep completes with partial data.  ``on_error``
    overrides the module-wide policy for this call only — the serving
    layer's batched entry point, which must keep going without mutating
    the CLI's globals.
    """
    cells = [cell.resolved() for cell in cells]
    keys = [_memo_key(cell) for cell in cells]
    results: list[SimulationResult | None] = [None] * len(cells)
    pending: list[int] = []
    for i, key in enumerate(keys):
        hit = _cache_get(key, use_cache)
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)
    CACHE_STATS["misses"] += len(pending)
    obs = _obs_current()
    if obs is not None and pending:
        obs.metrics.counter("experiments.cache", outcome="misses").inc(
            len(pending)
        )

    jobs = _DEFAULT_JOBS if jobs is None else max(1, int(jobs))
    started = _time.monotonic()
    done = 0

    def report(final: bool = False) -> None:
        if not _PROGRESS:
            return
        elapsed = _time.monotonic() - started
        end = "\n" if final else "\r"
        sys.stderr.write(
            f"  [{label}] {len(cells) - len(pending) + done}/{len(cells)} "
            f"cells ({len(cells) - len(pending)} cached, "
            f"{done} run, {elapsed:.1f}s){end}"
        )
        sys.stderr.flush()

    report()
    if pool is not None or (jobs > 1 and len(pending) > 1):
        # Worker processes have no obs session of their own: the fan-out
        # is summarised as one harness span (per-cell sim tracing needs
        # the serial path).
        if obs is not None:
            fan_out = obs.tracer.wall_span(
                "experiments", f"{label} fan-out", cells=len(pending), jobs=jobs
            )
        else:
            fan_out = nullcontext()
        own_pool = None
        active = pool
        if active is None:
            from repro.pool import PoolConfig, SupervisedPool

            own_pool = SupervisedPool(
                PoolConfig(
                    workers=min(jobs, len(pending)),
                    heartbeat=_POOL_HEARTBEAT,
                    cell_deadline=_WORKER_DEADLINE,
                    breaker_threshold=_BREAKER_THRESHOLD,
                )
            )
            active = own_pool

        def on_cell_done(index: int, outcome) -> None:
            nonlocal done
            done += 1
            report()

        try:
            with fan_out:
                specs = [cells[i] for i in pending]
                outcomes = active.run(specs, on_done=on_cell_done)
                broken = [
                    k for k, outcome in enumerate(outcomes)
                    if isinstance(outcome, PoolBrokenError)
                ]
                if broken:
                    # Pool-wide breakage is not the cells' fault: rebuild
                    # the fleet once and resubmit only the broken cells.
                    active.rebuild()
                    retried = active.run(
                        [specs[k] for k in broken], on_done=None
                    )
                    for k, outcome in zip(broken, retried):
                        outcomes[k] = outcome
                for i, outcome in zip(pending, outcomes):
                    if isinstance(outcome, SimulationResult):
                        results[i] = outcome
                    elif isinstance(outcome, CellFailure):
                        # Pre-structured by the supervisor (poison cells):
                        # deliver under this call's on-error policy.
                        results[i] = _deliver_failure(outcome, on_error)
                    else:
                        # The cell itself raised in its worker: the
                        # worker's attempt counts as the first, and any
                        # retry budget left runs here in the parent.
                        results[i] = _run_one(
                            cells[i], prior=outcome, on_error=on_error
                        )
        finally:
            if own_pool is not None:
                own_pool.close()
    else:
        for i in pending:
            if obs is not None:
                with obs.tracer.wall_span(
                    "experiments", _cell_label(cells[i]), group=label
                ):
                    results[i] = _run_one(cells[i], on_error=on_error)
            else:
                results[i] = _run_one(cells[i], on_error=on_error)
            done += 1
            report()
    if cells:
        report(final=True)

    for i in pending:
        if isinstance(results[i], SimulationResult):
            _cache_put(keys[i], results[i], use_cache)
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
    ).resolved()
    key = _memo_key(spec)
    hit = _cache_get(key, use_cache)
    if hit is not None:
        return hit
    _count_cache("misses")
    result = _run_one(spec)
    if isinstance(result, SimulationResult):
        _cache_put(key, result, use_cache)
    return result


def run_config(
    workload: Workload | str,
    config: SimConfig,
    scale: str = "tiny",
    seed: int = 0,
    max_events: int = MAX_EVENTS,
    use_cache: bool = True,
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
    ).resolved()
    key = _memo_key(spec)
    hit = _cache_get(key, use_cache)
    if hit is not None:
        return hit
    _count_cache("misses")
    result = _run_one(spec)
    if isinstance(result, SimulationResult):
        _cache_put(key, result, use_cache)
    return result


def run_matrix(
    presets: Sequence[SystemPreset],
    workloads: Sequence[str],
    scale: str,
    ratio: float | None = None,
    jobs: int | None = None,
    label: str | None = None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run every (workload, preset) pair; keys are (workload, preset.name).

    Cells missing from the cache fan out across ``jobs`` worker processes
    (default: :func:`set_default_jobs` / ``REPRO_JOBS``, i.e. serial).
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
        jobs=jobs,
        use_cache=use_cache,
        label=label or "matrix",
    )
    return {
        (cell.workload, cell.preset.name): result
        for cell, result in zip(cells, results)
    }
