"""Supervised, crash-isolated worker pool — the execution tier for cells.

Both entry points that fan simulation cells out — sweeps and the
serving layer (:mod:`repro.serve`), each through the experiment layer's
one dispatcher, ``submit_cell`` — execute through
:class:`SupervisedPool`: workers
run cells in isolated subprocesses with heartbeats and per-cell
deadlines; the supervisor detects hung or dead workers (missed
heartbeats → SIGTERM → SIGKILL escalation), restarts them with
exponential backoff and deterministic jitter, and resumes the
interrupted cell in a fresh worker from its last
:class:`~repro.checkpoint.SimCheckpoint` so no completed batch is ever
recomputed.  Repeated crashes on one memo key trip a per-key circuit
breaker that quarantines the key into a structured
:class:`~repro.errors.PoisonCellError` instead of crash-looping the
fleet.

Every worker slot is tracked by a declared lifecycle machine
(``pool-worker``: spawning → idle → busy → draining → dead, see
:data:`repro.lifecycle.WORKER_LIFECYCLE`), so supervision bugs surface
as :class:`~repro.errors.IllegalTransition` with full snapshots.

Deterministic process-level chaos (``worker-kill`` / ``worker-hang`` /
``worker-slow``, :mod:`repro.chaos.process`) makes all of it testable:
a chaotic sweep completes bit-identical to a chaos-free golden run.
See ``docs/robustness.md`` ("Supervised worker pool") for the operator
view and the poison-cell triage runbook.

A worker runs a cell with :func:`repro.experiments.cells.simulate_spec`.
The pool imports nothing else from the experiment layer, so the
dispatcher above it imports the pool at module top.
"""

from repro.pool.config import PoolConfig
from repro.pool.supervisor import SupervisedPool, sweep_stale_tmp_files

__all__ = ["PoolConfig", "SupervisedPool", "sweep_stale_tmp_files"]
