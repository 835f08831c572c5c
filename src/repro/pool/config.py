"""Pool tuning knobs, validated once at construction."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class PoolConfig:
    """Everything a :class:`~repro.pool.SupervisedPool` needs to know.

    The defaults favour production sweeps (generous grace periods, a
    breaker that tolerates a few unlucky crashes); the supervision tests
    shrink the time constants to keep chaos suites fast.  What a cell
    computes — including its checkpoint directory and process-level
    chaos — rides in the cell's own
    :class:`~repro.experiments.common.RunSpec`.
    """

    #: Worker processes to keep alive.
    workers: int = 1
    #: Seconds between worker heartbeats while busy; ``None`` disables
    #: the heartbeat thread *and* missed-heartbeat detection (used by the
    #: overhead bench to isolate supervision cost).
    heartbeat: float | None = 0.25
    #: A busy worker is declared hung after ``heartbeat * miss_budget``
    #: silent seconds.
    miss_budget: float = 8.0
    #: Hard per-cell wall deadline enforced by the *supervisor* (the
    #: in-simulation watchdog budget stays the graceful mechanism; this
    #: one catches workers too wedged to honour it).  ``None`` disables.
    cell_deadline: float | None = None
    #: Seconds between SIGTERM and the SIGKILL escalation.
    term_grace: float = 1.0
    #: A spawned worker must report ready within this many seconds.
    spawn_timeout: float = 30.0
    #: Restart backoff: ``base * 2**consecutive_failures`` capped at
    #: ``cap``, plus a deterministic jitter in ``[0, base)`` derived from
    #: the slot and restart count (so a crashed fleet does not respawn in
    #: lockstep, yet every run of the same history is reproducible).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Consecutive crashes on one memo key (a completed run resets the
    #: count) before the per-key circuit breaker quarantines it as a
    #: :class:`~repro.errors.PoisonCellError`.
    breaker_threshold: int = 5
    #: Consecutive failed spawn/ready cycles per slot before the pool
    #: declares itself broken (:class:`~repro.errors.PoolBrokenError`).
    spawn_fail_limit: int = 5
    #: Supervision loop granularity in seconds.
    tick: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("pool needs at least one worker", workers=self.workers)
        if self.heartbeat is not None and self.heartbeat <= 0:
            raise ConfigError("heartbeat must be positive (or None)")
        if self.miss_budget <= 0:
            raise ConfigError("miss budget must be positive")
        if self.cell_deadline is not None and self.cell_deadline <= 0:
            raise ConfigError("cell deadline must be positive (or None)")
        if self.term_grace < 0 or self.spawn_timeout <= 0:
            raise ConfigError("grace periods must be positive")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigError(
                "backoff must satisfy 0 <= base <= cap",
                base=self.backoff_base, cap=self.backoff_cap,
            )
        if self.breaker_threshold < 1:
            raise ConfigError("breaker threshold must be at least 1")
        if self.spawn_fail_limit < 1:
            raise ConfigError("spawn fail limit must be at least 1")
        if self.tick <= 0:
            raise ConfigError("tick must be positive")
