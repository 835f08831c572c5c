"""The pool supervisor: spawn, watch, escalate, restart, hand off work.

One :class:`SupervisedPool` owns N worker slots.  Each slot holds at
most one live worker (process + pipe + a ``pool-worker`` lifecycle
machine).  :meth:`SupervisedPool.submit` queues one cell and returns a
:class:`~concurrent.futures.Future` for its outcome; one loop thread,
owned by the pool, multiplexes over every worker pipe (and a wake-up
socket, so a submission is picked up at once) with
:func:`multiprocessing.connection.wait` and, each pass:

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

When no worker can be kept alive (every slot failed ``spawn_fail_limit``
consecutive spawns) the pool heals itself once, in place: every slot's
failure count is reset and the fleet respawns.  If that fails too, the
outstanding cells resolve to :class:`~repro.errors.PoolBrokenError`.

The pool is long-lived (the serving layer submits cells as they arrive
and keeps workers warm between them) and thread-safe: ``submit`` /
``stats()`` / ``workers_alive()`` may be called from any thread.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future, as_completed
from dataclasses import replace
from itertools import chain
from multiprocessing import connection, get_all_start_methods, get_context

from repro.chaos.process import plan_worker_chaos
from repro.errors import PoisonCellError, PoolBrokenError, PoolError
from repro.experiments.cells import checkpoint_file, spec_digest
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
    when a cell settles and no other cell uses its directory (no worker
    is writing there), which is what keeps the kill-and-resume CI
    invariant (*zero orphans after a chaotic sweep*) true even for
    hard-killed workers.  Returns the count.
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


def _outcome(future: Future):
    """A settled pool future's outcome: the result, or the exception."""
    error = future.exception()
    return future.result() if error is None else error


class _Task:
    """One cell in flight through the pool."""

    __slots__ = ("spec", "digest", "attempts", "future")

    def __init__(self, spec, digest: str) -> None:
        self.spec = spec
        self.digest = digest
        self.attempts = 0  # crashes so far; also the chaos-plan stream id
        self.future: Future = Future()


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
        self._start_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._broken = False
        self._healed = False
        self._next_task_id = 0
        #: Cells handed over by ``submit`` (any thread) to the loop.
        self._submitted: deque[_Task] = deque()
        #: Cells waiting for a worker (loop thread only).
        self._queue: deque[_Task] = deque()
        #: task id -> the cell a worker is running (loop thread only).
        self._inflight: dict[int, _Task] = {}
        # Written by submit/close to wake the loop; sockets, so forked
        # workers close their copies with the other inherited sockets.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
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
    def workers_alive(self) -> int:
        """Workers whose process is currently running."""
        return sum(
            1
            for slot in self._slots
            if slot.worker is not None and slot.worker.process.is_alive()
        )

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
    # Submission
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the fleet and the loop thread (idempotent; ``submit``
        calls it on first use)."""
        with self._start_lock:
            if self._closed:
                raise PoolError("pool is closed")
            if self._thread is not None:
                return
            now = time.monotonic()
            for slot in self._slots:
                self._spawn(slot, now)
            self._thread = threading.Thread(
                target=self._loop, name="repro-pool", daemon=True
            )
            self._thread.start()

    def submit(self, spec) -> Future:
        """Queue one cell (policy already applied: see
        :meth:`~repro.experiments.policy.RunPolicy.apply`).

        The future resolves to the cell's
        :class:`~repro.simulator.SimulationResult`, or raises what ended
        it: a :class:`~repro.errors.PoisonCellError` /
        :class:`~repro.errors.PoolBrokenError`, or the exception the cell
        itself raised in its worker (the caller applies its own
        retry/on-error policy to those).  Crashes never reach it: a
        crashed cell resumes in a fresh worker.  Callbacks run on the
        pool's loop thread.
        """
        task = _Task(spec, spec_digest(spec))
        self.start()
        with self._start_lock:
            if self._closed:
                raise PoolError("pool is closed")
            self._submitted.append(task)
        self._wake()
        return task.future

    def run(self, specs, on_done=None) -> list:
        """Submit ``specs`` and wait for all of them; returns their
        outcomes in order (results, or the exceptions :meth:`submit`'s
        futures raise).  ``on_done(index, outcome)`` is invoked once per
        finished cell, in completion order, on the calling thread."""
        futures = [self.submit(spec) for spec in specs]
        index = {future: i for i, future in enumerate(futures)}
        for future in as_completed(futures):
            if on_done is not None:
                on_done(index[future], _outcome(future))
        return [_outcome(future) for future in futures]

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a full buffer already holds a pending wake-up

    # ------------------------------------------------------------------
    # Spawning / reaping
    # ------------------------------------------------------------------
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
        if self._broken and not (self._queue or self._inflight):
            return  # nothing to run: a broken fleet waits for work
        for slot in self._slots:
            if slot.worker is None and now >= slot.next_spawn_at:
                slot.restarts += 1
                self._count("restarts")
                self._spawn(slot, now)

    def _live_workers(self) -> list[_Worker]:
        return [s.worker for s in self._slots if s.worker is not None]

    def _check_broken(self) -> None:
        """No worker alive and every slot out of spawn attempts: heal in
        place once, then fail the outstanding cells."""
        if self._live_workers() or any(
            slot.consecutive < self.config.spawn_fail_limit
            for slot in self._slots
        ):
            return
        if not self._healed:
            self._healed = True
            self._count("rebuilds")
            for slot in self._slots:
                slot.consecutive = 0
                slot.next_spawn_at = 0.0
            return
        self._broken = True
        self._fail_outstanding(PoolBrokenError(
            "no worker could be kept alive",
            spawn_failures=[slot.consecutive for slot in self._slots],
        ))

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
        return checkpoint_file(task.spec)

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
    # The loop thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            while self._submitted:
                self._queue.append(self._submitted.popleft())
            if self._stop.is_set():  # close(): nothing is submitted now
                self._fail_outstanding(
                    PoolBrokenError("pool close requested with cells in flight")
                )
                return
            now = time.monotonic()
            self._reap(now)
            self._respawn_due(now)
            self._assign(now)
            self._check_broken()
            live = self._live_workers()
            by_conn = {w.conn: w for w in live if not w.eof}
            # Idle and fully staffed: sleep until a submission or a
            # worker message; otherwise tick for backoffs and deadlines.
            idle = not (self._queue or self._inflight) and all(
                slot.worker is not None and slot.worker.machine.state == "idle"
                for slot in self._slots
            )
            ready = connection.wait(
                [self._wake_r, *by_conn],
                timeout=None if idle else self.config.tick,
            )
            for conn in ready:
                if conn is self._wake_r:
                    self._wake_r.recv(4096)  # wake-ups carry no data
                else:
                    self._drain_conn(by_conn[conn])
            self._check_health(time.monotonic())

    def _fail_outstanding(self, error: PoolBrokenError) -> None:
        tasks = [*self._queue, *self._inflight.values()]
        self._queue.clear()
        self._inflight.clear()
        for task in tasks:
            self._finish(task, error)

    def _finish(self, task: _Task, outcome, quarantine: bool = False) -> None:
        if task.future.done():
            return  # raced a crash handoff; the other copy won
        if isinstance(outcome, SimulationResult):
            self._count("completed")
            self._cleanup_task_files(task, quarantine=False)
            # Success closes the circuit: only *consecutive* crashes
            # (never interrupted by a completion) may accumulate toward
            # the breaker, or a long-lived pool under sustained chaos
            # would eventually quarantine every frequently-requested key.
            with self._stats_lock:
                self._crashes.pop(task.digest, None)
        else:
            self._count("failed")
            if quarantine:
                path = self._cleanup_task_files(task, quarantine=True)
                if path is not None:
                    outcome.checkpoint_path = path
        directory = task.spec.checkpoint_dir
        if directory is not None and not self._stop.is_set() and all(
            t.spec.checkpoint_dir != directory
            for t in chain(self._queue, self._inflight.values())
        ):
            # No worker writes there now: clear any tmp litter hard
            # kills left behind.
            sweep_stale_tmp_files(directory)
        if isinstance(outcome, BaseException):
            task.future.set_exception(outcome)
        else:
            task.future.set_result(outcome)

    def _assign(self, now: float) -> None:
        if not self._queue:
            return
        idle = [
            w for w in self._live_workers()
            if w.machine.state == "idle" and w.task is None
        ]
        for worker in idle:
            task = None
            while self._queue:
                candidate = self._queue.popleft()
                poison = self._quarantine.get(candidate.digest)
                if poison is not None:
                    # Tripped breaker: fail fast, never burn a worker.
                    self._finish(candidate, poison)
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
                self._queue.appendleft(task)
                continue
            worker.machine.fire("assign")
            worker.task = task
            worker.task_id = task_id
            worker.busy_since = now
            worker.last_hb = now
            self._inflight[task_id] = task

    def _drain_conn(self, worker: _Worker) -> None:
        try:
            while worker.conn.poll():
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            worker.eof = True

    def _handle_message(self, worker, message) -> None:
        tag = message[0]
        if tag == "ready":
            worker.machine.fire("ready")
            worker.slot.consecutive = 0
            worker.last_hb = time.monotonic()
            self._broken = self._healed = False
        elif tag == "hb":
            worker.last_hb = time.monotonic()
        elif tag in ("result", "error"):
            task = self._inflight.pop(message[1], None)
            worker.machine.fire("complete")
            worker.task = None
            worker.task_id = None
            worker.term_at = None
            if task is not None:
                self._finish(task, message[2])
        # "bye" (graceful exit) needs nothing: the reap sees the death.

    def _reap(self, now: float) -> None:
        for worker in self._live_workers():
            if not worker.eof and worker.process.is_alive():
                continue
            # Drain any messages that beat the death: a result that
            # raced a SIGKILL still counts (and must not resume).
            self._drain_conn(worker)
            task = worker.task
            exitcode = worker.process.exitcode
            if worker.machine.state == "draining" and task is None:
                worker.machine.fire("exit")
                self._retire(worker, crashed=False)
                continue
            if worker.machine.state in _LIVE_STATES:
                worker.machine.fire("crash")
            self._count("crashes")
            if task is not None and not task.future.done():
                self._inflight.pop(worker.task_id, None)
                self._crashed_task(task, exitcode)
            self._retire(worker, crashed=True)

    def _crashed_task(self, task: _Task, exitcode) -> None:
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
            self._finish(task, poison, quarantine=True)
            return
        checkpoint = self._task_checkpoint(task)
        if checkpoint is not None:
            task.spec = replace(task.spec, resume=True)
            if checkpoint.exists():
                self._count("resumes")
        self._queue.appendleft(task)  # head of the line: it has waited longest

    # ------------------------------------------------------------------
    # Close
    # ------------------------------------------------------------------
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

        Cells still queued or running resolve to
        :class:`~repro.errors.PoolBrokenError` first.  Workers idle at
        close then exit gracefully via the ``exit`` message; anything
        still alive after ``timeout`` is SIGKILLed.
        """
        with self._start_lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join()
        for worker in self._live_workers():
            if worker.machine.state in _LIVE_STATES:
                worker.machine.fire("drain")
            try:
                worker.conn.send(("exit",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(not w.process.is_alive() for w in self._live_workers()):
                break
            time.sleep(min(0.01, self.config.tick))
        self._kill_fleet()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "SupervisedPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
