"""The pool supervisor: spawn, watch, escalate, restart, hand off work.

One :class:`SupervisedPool` owns N worker slots.  Each slot holds at
most one live worker (process + pipe + a ``pool-worker`` lifecycle
machine); the blocking :meth:`SupervisedPool.run` loop multiplexes over
every worker pipe with :func:`multiprocessing.connection.wait` and, each
tick:

1. **reaps** dead workers — draining any final messages first, so a
   result that raced the death is never lost, then converting an
   attached task into a crash;
2. **restarts** dead slots with exponential backoff plus deterministic
   jitter (CRC of slot + restart count — reproducible, but a crashed
   fleet never respawns in lockstep);
3. **assigns** queued cells to idle workers, drawing each attempt's
   process-chaos plan deterministically;
4. **checks health** — a busy worker that misses its heartbeat budget or
   its hard cell deadline is escalated SIGTERM → (grace) → SIGKILL.

A crashed cell re-queues *at the front* with ``resume=True``: the
replacement worker continues from the last on-disk
:class:`~repro.checkpoint.SimCheckpoint`, so every attempt makes forward
progress and no completed batch is recomputed.  The ``breaker_threshold``-th
consecutive crash on one memo key (a completed run closes the circuit
and resets its count) trips the per-key circuit breaker instead: the key
is quarantined, its checkpoint set aside as ``*.ckpt.quarantine``, and
its outcome (now and for every later submission) is a structured
:class:`~repro.errors.PoisonCellError`.

The pool is long-lived (the serving layer calls ``run`` per batch and
keeps workers warm between batches) and thread-friendly: ``stats()`` /
``workers_alive()`` may be read from another thread while a run is in
flight.
"""

from __future__ import annotations

import os
import pathlib
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import replace
from multiprocessing import connection, get_all_start_methods, get_context

from repro.chaos.process import plan_worker_chaos
from repro.errors import PoisonCellError, PoolBrokenError, PoolError
from repro.experiments import common as _common
from repro.lifecycle import WORKER_LIFECYCLE, StateMachine
from repro.obs import current as _obs_current
from repro.pool.config import PoolConfig
from repro.pool.worker import worker_main
from repro.simulator import SimulationResult

__all__ = ["SupervisedPool", "sweep_stale_tmp_files"]

_LIVE_STATES = ("spawning", "idle", "busy")


def sweep_stale_tmp_files(directory: str | os.PathLike) -> int:
    """Remove ``*.ckpt.tmp`` litter left by workers killed mid-write.

    :func:`repro.checkpoint.save_checkpoint` writes atomically (tmp file
    + ``os.replace``), so a SIGKILL mid-write can only ever leave a tmp
    file behind — never a torn checkpoint.  The supervisor calls this
    after each run settles (no worker is writing), which is what keeps
    the kill-and-resume CI invariant (*zero orphans after a chaotic
    sweep*) true even for hard-killed workers.  Returns the count.
    """
    removed = 0
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.ckpt.tmp"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class _Task:
    """One cell in flight through the pool."""

    __slots__ = ("index", "spec", "digest", "attempts", "outcome", "done")

    def __init__(self, index: int, spec, digest: str) -> None:
        self.index = index
        self.spec = spec
        self.digest = digest
        self.attempts = 0  # crashes so far; also the chaos-plan stream id
        self.outcome = None
        self.done = False


class _Worker:
    """One live worker process bound to a slot."""

    __slots__ = (
        "slot", "process", "conn", "machine", "task", "task_id",
        "last_hb", "busy_since", "spawned_at", "term_at", "killed", "eof",
    )

    def __init__(self, slot: "_Slot", process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.machine = StateMachine(WORKER_LIFECYCLE, owner=self)
        self.task: _Task | None = None
        self.task_id: int | None = None
        self.last_hb = time.monotonic()
        self.busy_since = 0.0
        self.spawned_at = time.monotonic()
        self.term_at: float | None = None
        self.killed = False
        self.eof = False


class _Slot:
    """A worker seat: restart bookkeeping survives the workers in it."""

    __slots__ = ("index", "worker", "restarts", "consecutive", "next_spawn_at")

    def __init__(self, index: int) -> None:
        self.index = index
        self.worker: _Worker | None = None
        self.restarts = 0       # lifetime respawns (stats; 0 for the first)
        self.consecutive = 0    # failures since the last successful ready
        self.next_spawn_at = 0.0


class SupervisedPool:
    """Crash-isolated execution tier for simulation cells (see module doc)."""

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config or PoolConfig()
        if "fork" in get_all_start_methods():
            self._ctx = get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = get_context()
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        self._run_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        self._broken = False
        self._next_task_id = 0
        #: digest -> crash count (pool lifetime, feeds the breaker).
        self._crashes: dict[str, int] = {}
        #: digest -> the PoisonCellError quarantining that key.
        self._quarantine: dict[str, PoisonCellError] = {}
        self._stats = {
            "restarts": 0,
            "crashes": 0,
            "heartbeat_misses": 0,
            "deadline_kills": 0,
            "spawn_timeouts": 0,
            "sigterms": 0,
            "sigkills": 0,
            "resumes": 0,
            "poisoned": 0,
            "completed": 0,
            "failed": 0,
            "rebuilds": 0,
        }

    # ------------------------------------------------------------------
    # Introspection (safe from other threads)
    # ------------------------------------------------------------------
    @property
    def target_workers(self) -> int:
        return self.config.workers

    def workers_alive(self) -> int:
        """Workers whose process is currently running."""
        return sum(
            1
            for slot in self._slots
            if slot.worker is not None and slot.worker.process.is_alive()
        )

    def quarantined_keys(self) -> list[str]:
        with self._stats_lock:
            return sorted(self._quarantine)

    def stats(self) -> dict:
        """JSON-safe snapshot for ``/v1/stats`` and sweep reports."""
        with self._stats_lock:
            counters = dict(self._stats)
            quarantined = sorted(self._quarantine)
        counters["workers"] = {
            "target": self.config.workers,
            "alive": self.workers_alive(),
        }
        counters["quarantined_keys"] = quarantined
        counters["broken"] = self._broken
        return counters

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter("pool.events", kind=key).inc(amount)

    # ------------------------------------------------------------------
    # Spawning / reaping
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the fleet (idempotent; ``run`` calls it on first use)."""
        with self._run_lock:
            if self._closed:
                raise PoolError("pool is closed")
            now = time.monotonic()
            for slot in self._slots:
                if slot.worker is None:
                    self._spawn(slot, now)
            self._started = True

    def _spawn(self, slot: _Slot, now: float) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, slot.index, self.config.heartbeat),
            name=f"repro-pool-{slot.index}",
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            parent_conn.close()
            child_conn.close()
            slot.consecutive += 1
            slot.next_spawn_at = now + self._backoff(slot)
            return
        child_conn.close()
        slot.worker = _Worker(slot, process, parent_conn)

    def _backoff(self, slot: _Slot) -> float:
        config = self.config
        delay = min(
            config.backoff_cap,
            config.backoff_base * (2 ** min(slot.consecutive, 16)),
        )
        token = f"{slot.index}|{slot.restarts}|{slot.consecutive}".encode()
        jitter = (zlib.crc32(token) % 1000) / 1000.0 * config.backoff_base
        return delay + jitter

    def _retire(self, worker: _Worker, crashed: bool) -> None:
        """Drop a dead worker from its slot and schedule the replacement."""
        slot = worker.slot
        try:
            worker.conn.close()
        except OSError:
            pass
        slot.worker = None
        if crashed:
            slot.consecutive += 1
        now = time.monotonic()
        slot.next_spawn_at = now + (self._backoff(slot) if crashed else 0.0)

    def _respawn_due(self, now: float) -> None:
        if self._closed or self._stop.is_set():
            return
        for slot in self._slots:
            if slot.worker is None and now >= slot.next_spawn_at:
                slot.restarts += 1
                self._count("restarts")
                self._spawn(slot, now)

    def _live_workers(self) -> list[_Worker]:
        return [s.worker for s in self._slots if s.worker is not None]

    # ------------------------------------------------------------------
    # Health / escalation
    # ------------------------------------------------------------------
    def _escalate(self, worker: _Worker, now: float, cause: str) -> None:
        """SIGTERM first (a graceful crash that lets the cell checkpoint
        state settle), SIGKILL after ``term_grace``."""
        pid = worker.process.pid
        if pid is None or worker.killed:
            return
        if worker.term_at is None:
            self._count(cause)
            self._count("sigterms")
            worker.term_at = now
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        elif now - worker.term_at >= self.config.term_grace:
            self._count("sigkills")
            worker.killed = True
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def _check_health(self, now: float) -> None:
        config = self.config
        for worker in self._live_workers():
            if worker.eof:
                continue
            state = worker.machine.state
            if state == "spawning":
                if now - worker.spawned_at > config.spawn_timeout:
                    self._escalate(worker, now, "spawn_timeouts")
                continue
            if worker.task is None:
                continue
            if worker.term_at is not None:
                self._escalate(worker, now, "")  # follow through to SIGKILL
                continue
            if (
                config.heartbeat is not None
                and now - worker.last_hb > config.heartbeat * config.miss_budget
            ):
                self._escalate(worker, now, "heartbeat_misses")
            elif (
                config.cell_deadline is not None
                and now - worker.busy_since > config.cell_deadline
            ):
                self._escalate(worker, now, "deadline_kills")

    # ------------------------------------------------------------------
    # Checkpoint hygiene (satellite: zero orphans, SIGKILL included)
    # ------------------------------------------------------------------
    def _task_checkpoint(self, task: _Task) -> pathlib.Path | None:
        if task.spec.checkpoint_dir is None:
            return None
        return _common._checkpoint_file(task.spec)

    def _cleanup_task_files(self, task: _Task, quarantine: bool) -> str | None:
        path = self._task_checkpoint(task)
        if path is None:
            return None
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.unlink()
        except OSError:
            pass
        if quarantine:
            target = path.with_name(path.name + ".quarantine")
            try:
                os.replace(path, target)
                return str(target)
            except OSError:
                return None
        try:
            path.unlink()
        except OSError:
            pass
        return None

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, specs, on_done=None) -> list:
        """Execute ``specs`` (policy already applied: see
        :meth:`~repro.experiments.common.RunPolicy.apply`); returns outcomes.

        Each outcome slot holds a :class:`~repro.simulator.SimulationResult`,
        a :class:`~repro.errors.PoisonCellError` /
        :class:`~repro.errors.PoolBrokenError`, or the exception the cell
        itself raised in its worker (the caller applies its own
        retry/on-error policy to those).  ``on_done`` is invoked once per
        finished cell, in completion order, on the calling thread.
        """
        with self._run_lock:
            if self._closed:
                raise PoolError("pool is closed")
            if not self._started:
                self.start()
            tasks = [
                _Task(i, spec, _common._spec_digest(spec))
                for i, spec in enumerate(specs)
            ]
            queue: deque[_Task] = deque(tasks)
            inflight: dict[int, _Task] = {}
            pending = len(tasks)

            def finish(task: _Task, outcome, quarantine: bool = False) -> None:
                nonlocal pending
                task.outcome = outcome
                task.done = True
                pending -= 1
                if isinstance(outcome, SimulationResult):
                    self._count("completed")
                    self._cleanup_task_files(task, quarantine=False)
                    # Success closes the circuit: only *consecutive*
                    # crashes (never interrupted by a completion) may
                    # accumulate toward the breaker, or a long-lived
                    # pool under sustained chaos would eventually
                    # quarantine every frequently-requested key.
                    with self._stats_lock:
                        self._crashes.pop(task.digest, None)
                else:
                    self._count("failed")
                    if quarantine:
                        path = self._cleanup_task_files(task, quarantine=True)
                        if path is not None:
                            outcome.checkpoint_path = path
                if on_done is not None:
                    on_done(task.index, outcome)

            while pending:
                if self._stop.is_set():
                    stopped = PoolBrokenError(
                        "pool close requested with cells in flight"
                    )
                    inflight.clear()
                    for task in tasks:
                        if not task.done:
                            finish(task, stopped)
                    break
                now = time.monotonic()
                self._reap(inflight, queue, finish, now)
                self._respawn_due(now)
                self._assign(queue, inflight, finish, now)
                live = self._live_workers()
                if not live:
                    if all(
                        slot.consecutive >= self.config.spawn_fail_limit
                        for slot in self._slots
                    ):
                        self._broken = True
                        broken = PoolBrokenError(
                            "no worker could be kept alive",
                            spawn_failures=[
                                slot.consecutive for slot in self._slots
                            ],
                        )
                        for task in tasks:
                            if not task.done:
                                finish(task, broken)
                        break
                    time.sleep(self.config.tick)
                    continue
                watchable = [w.conn for w in live if not w.eof]
                if watchable:
                    ready = connection.wait(
                        watchable, timeout=self.config.tick
                    )
                    by_conn = {w.conn: w for w in live}
                    for conn in ready:
                        self._drain_conn(
                            by_conn[conn], inflight, queue, finish
                        )
                else:
                    time.sleep(self.config.tick)
                self._check_health(time.monotonic())

            # The run has settled (no worker mid-write): clear any
            # tmp litter hard kills left in the checkpoint directories.
            if not self._stop.is_set():
                for directory in {
                    t.spec.checkpoint_dir
                    for t in tasks
                    if t.spec.checkpoint_dir is not None
                }:
                    sweep_stale_tmp_files(directory)
            return [task.outcome for task in tasks]

    def _assign(self, queue, inflight, finish, now: float) -> None:
        if not queue:
            return
        idle = [
            w for w in self._live_workers()
            if w.machine.state == "idle" and w.task is None
        ]
        for worker in idle:
            task = None
            while queue:
                candidate = queue.popleft()
                poison = self._quarantine.get(candidate.digest)
                if poison is not None:
                    # Tripped breaker: fail fast, never burn a worker.
                    finish(candidate, poison, quarantine=False)
                    continue
                task = candidate
                break
            if task is None:
                return
            plan = plan_worker_chaos(
                task.spec.pool_chaos, task.digest, task.attempts
            )
            task_id = self._next_task_id
            self._next_task_id += 1
            try:
                worker.conn.send(("task", task_id, task.spec, plan))
            except (OSError, ValueError):
                # Died between reap and assign: put the cell back (it
                # never ran, so no attempt is charged) and let the next
                # reap handle the corpse.
                worker.eof = True
                queue.appendleft(task)
                continue
            worker.machine.fire("assign")
            worker.task = task
            worker.task_id = task_id
            worker.busy_since = now
            worker.last_hb = now
            inflight[task_id] = task

    def _drain_conn(self, worker: _Worker, inflight, queue, finish) -> None:
        try:
            while worker.conn.poll():
                self._handle_message(
                    worker, worker.conn.recv(), inflight, queue, finish
                )
        except (EOFError, OSError):
            worker.eof = True

    def _handle_message(self, worker, message, inflight, queue, finish) -> None:
        tag = message[0]
        if tag == "ready":
            worker.machine.fire("ready")
            worker.slot.consecutive = 0
            worker.last_hb = time.monotonic()
        elif tag == "hb":
            worker.last_hb = time.monotonic()
        elif tag in ("result", "error"):
            task = inflight.pop(message[1], None)
            worker.machine.fire("complete")
            worker.task = None
            worker.task_id = None
            worker.term_at = None
            if task is None or task.done:
                return  # raced a crash handoff; the other copy won
            finish(task, message[2])
        elif tag == "bye":
            pass  # graceful exit acknowledgement; reap sees the death

    def _reap(self, inflight, queue, finish, now: float) -> None:
        for worker in self._live_workers():
            if not worker.eof and worker.process.is_alive():
                continue
            # Drain any messages that beat the death: a result that
            # raced a SIGKILL still counts (and must not resume).
            self._drain_conn(worker, inflight, queue, finish)
            task = worker.task
            exitcode = worker.process.exitcode
            if worker.machine.state == "draining" and task is None:
                worker.machine.fire("exit")
                self._retire(worker, crashed=False)
                continue
            if worker.machine.state in _LIVE_STATES:
                worker.machine.fire("crash")
            self._count("crashes")
            if task is not None and not task.done:
                inflight.pop(worker.task_id, None)
                self._crashed_task(task, queue, finish, exitcode, worker)
            self._retire(worker, crashed=True)

    def _crashed_task(self, task, queue, finish, exitcode, worker) -> None:
        """A worker died with this cell attached: resume it or poison it."""
        with self._stats_lock:
            crashes = self._crashes.get(task.digest, 0) + 1
            self._crashes[task.digest] = crashes
        task.attempts += 1
        if crashes >= self.config.breaker_threshold:
            poison = PoisonCellError(
                "cell quarantined by the pool circuit breaker",
                workload=task.spec.workload,
                system=(
                    task.spec.preset.name
                    if task.spec.preset is not None
                    else "config"
                ),
                attempts=task.attempts,
                crashes=crashes,
                memo_digest=task.digest,
                last_exitcode=exitcode,
            )
            with self._stats_lock:
                self._quarantine[task.digest] = poison
            self._count("poisoned")
            finish(task, poison, quarantine=True)
            return
        checkpoint = self._task_checkpoint(task)
        if checkpoint is not None:
            task.spec = replace(task.spec, resume=True)
            if checkpoint.exists():
                self._count("resumes")
        queue.appendleft(task)  # head of the line: it has waited longest

    # ------------------------------------------------------------------
    # Rebuild / close
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Tear down every worker and respawn a fresh fleet.

        The recovery path :func:`~repro.experiments.common.run_cells`
        takes after a :class:`~repro.errors.PoolBrokenError`: surviving
        results are kept, only the broken cells are resubmitted, and no
        per-cell retry budget is burned on infrastructure failure.
        Breaker state (quarantined keys) survives — a poison cell stays
        poisoned across rebuilds.
        """
        with self._run_lock:
            if self._closed:
                raise PoolError("pool is closed")
            self._kill_fleet()
            for slot in self._slots:
                slot.consecutive = 0
                slot.next_spawn_at = 0.0
            self._broken = False
            self._count("rebuilds")
            self._started = False
            self.start()

    def _kill_fleet(self) -> None:
        for worker in self._live_workers():
            pid = worker.process.pid
            if pid is not None and worker.process.is_alive():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            worker.process.join(timeout=5.0)
            if worker.machine.state in _LIVE_STATES:
                worker.machine.fire("drain")
            if worker.machine.state == "draining":
                worker.machine.fire("exit")
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.slot.worker = None

    def close(self, timeout: float = 5.0) -> None:
        """Drain and stop the fleet (idempotent).

        Workers idle at close exit gracefully via the ``exit`` message;
        anything still alive after ``timeout`` is SIGKILLed.  A run in
        flight on another thread is aborted first (its unfinished cells
        resolve to :class:`~repro.errors.PoolBrokenError`).
        """
        self._stop.set()
        with self._run_lock:
            try:
                if self._closed:
                    return
                self._closed = True
                for worker in self._live_workers():
                    if worker.machine.state in _LIVE_STATES:
                        worker.machine.fire("drain")
                    try:
                        worker.conn.send(("exit",))
                    except (OSError, ValueError):
                        pass
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if all(
                        not w.process.is_alive()
                        for w in self._live_workers()
                    ):
                        break
                    time.sleep(min(0.01, self.config.tick))
                self._kill_fleet()
            finally:
                self._stop.clear()

    def __enter__(self) -> "SupervisedPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
