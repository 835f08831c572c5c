"""How cells run: one frozen :class:`RunPolicy` and its flags.

Entry points pass a policy explicitly (``policy=``) or scope one over a
block with :func:`run_policy`; calls that pass none run under the
default policy, built once from the environment.  Each CLI flag is
declared once, in :data:`POLICY_FLAGS`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from repro.chaos.config import (
    PROCESS_KINDS,
    ChaosConfig,
    parse_chaos_spec,
    split_process_chaos,
)
from repro.errors import CellFailure, ConfigError
from repro.experiments.cells import RunSpec
from repro.pool import PoolConfig

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

    def pool_config(self, workers: int) -> PoolConfig:
        """The :class:`~repro.pool.PoolConfig` for a pool under this policy."""
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

        with run_policy(jobs=4, on_error="keep-going") as failures:
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


def drain_failures() -> list[CellFailure]:
    """Return and clear the failures collected by the current
    :func:`run_policy` scope (empty outside any scope)."""
    if _FAILURES is None:
        return []
    failures = list(_FAILURES)
    _FAILURES.clear()
    return failures


def record_failures(results: Iterable) -> None:
    """Add the :class:`CellFailure` slots of ``results`` to the current
    :func:`run_policy` scope's list (nothing outside any scope)."""
    if _FAILURES is not None:
        _FAILURES.extend(r for r in results if isinstance(r, CellFailure))
