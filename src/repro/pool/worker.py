"""The pool worker process: cell execution, heartbeats, chaos hooks.

One worker is one forked (or spawned) subprocess running
:func:`worker_main` over a duplex pipe.  The protocol is deliberately
tiny — five pickled tuples:

* parent → worker: ``("task", task_id, spec, plan)`` and ``("exit",)``
* worker → parent: ``("ready", pid)``, ``("hb", task_id)``,
  ``("result", task_id, result)`` / ``("error", task_id, exc)``, and
  ``("bye",)`` on a graceful exit.

While a cell runs, a daemon thread heartbeats over the same pipe (one
send lock serialises the two writers).  SIGTERM raises ``SystemExit`` in
the worker's main thread — a *graceful* crash: a mid-cell SIGTERM
surfaces to the supervisor as a clean death whose cell resumes from its
last checkpoint elsewhere.

Process-level chaos plans (:func:`repro.chaos.process.plan_worker_chaos`)
are applied here, by wrapping the simulator's checkpoint hook: a
``kill_at`` plan SIGKILLs the process *immediately after* the Nth
checkpoint write lands on disk (so the supervisor's resume provably
never recomputes a completed batch), ``hang_at`` silences heartbeats and
blocks SIGTERM (forcing the supervisor through its full escalation), and
``slow_s`` sleeps at every write.
"""

from __future__ import annotations

import os
import pickle
import signal
import stat
import threading
import time

from repro import obs
from repro.errors import WorkerCrashError
from repro.experiments import cells

__all__ = ["worker_main"]


def _close_inherited_sockets(keep_fd: int) -> None:
    """Drop every socket fd the fork carried over except our own pipe.

    A fork-context worker inherits whatever the parent had open at
    spawn time — the serve layer's listening socket, accepted client
    connections, sibling workers' pipe ends.  Keeping them is not just
    untidy: a worker that outlives a request holds the accepted socket
    open, so the client never sees EOF on a connection the server
    already closed.  Sockets are closed selectively (the duplex pipe is
    itself a Unix socketpair, hence ``keep_fd``); ordinary files and
    pipes are left alone.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no /proc (non-Linux): inherit-and-hope, as before
    for fd in fds:
        if fd <= 2 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


class _ChaosCheckpointHook:
    """Wraps ``engine.checkpoint_hook``; fires the plan after each write.

    The engine nulls its hook when pickling (checkpoints never carry
    process-local callables), so this wrapper lives strictly inside one
    worker's attempt — a resumed attempt installs a fresh one from a
    freshly drawn plan.
    """

    __slots__ = ("prev", "plan", "runtime", "writes")

    def __init__(self, prev, plan: dict, runtime: "_WorkerRuntime") -> None:
        self.prev = prev
        self.plan = plan
        self.runtime = runtime
        self.writes = 0

    def __call__(self):
        path = self.prev()  # the checkpoint is on disk before any chaos
        self.writes += 1
        slow = self.plan.get("slow_s")
        if slow:
            time.sleep(slow)
        if self.plan.get("hang_at") == self.writes:
            self.runtime.hang()
        if self.plan.get("kill_at") == self.writes:
            os.kill(os.getpid(), signal.SIGKILL)
        return path


class _ChaosInstaller:
    """Cell hook (``cells.set_cell_hook``): arm the plan on a simulator."""

    __slots__ = ("plan", "runtime")

    def __init__(self, plan: dict, runtime: "_WorkerRuntime") -> None:
        self.plan = plan
        self.runtime = runtime

    def __call__(self, sim) -> None:
        prev = sim.engine.checkpoint_hook
        if prev is None:
            return  # no checkpointing on this cell: nothing to anchor to
        if isinstance(prev, _ChaosCheckpointHook):
            prev = prev.prev
        sim.engine.checkpoint_hook = _ChaosCheckpointHook(
            prev, self.plan, self.runtime
        )


class _WorkerRuntime:
    """Per-process plumbing: the pipe, its send lock, the heartbeat."""

    def __init__(self, conn, heartbeat: float | None) -> None:
        self.conn = conn
        self.heartbeat = heartbeat
        self._send_lock = threading.Lock()
        self._task_id: int | None = None
        self._silenced = False
        if heartbeat is not None:
            thread = threading.Thread(
                target=self._heartbeat_loop,
                name="pool-heartbeat",
                daemon=True,
            )
            thread.start()

    def send(self, message: tuple) -> None:
        with self._send_lock:
            self.conn.send(message)

    def begin(self, task_id: int) -> None:
        self._task_id = task_id

    def end(self) -> None:
        self._task_id = None

    def _heartbeat_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat)
            task_id = self._task_id
            if task_id is None or self._silenced:
                continue
            try:
                self.send(("hb", task_id))
            except (OSError, ValueError):
                return  # pipe gone: the parent died; nothing left to do

    def hang(self) -> None:
        """Go dark: the ``worker-hang`` chaos terminal state.

        Heartbeats stop and SIGTERM is blocked, so the only way out is
        the supervisor's SIGKILL escalation — which is the point.
        """
        self._silenced = True
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        while True:
            time.sleep(3600)


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def worker_main(conn, worker_id: int, heartbeat: float | None) -> None:
    """Entry point of one pool worker process."""
    signal.signal(signal.SIGTERM, _sigterm)
    _close_inherited_sockets(conn.fileno())
    runtime = _WorkerRuntime(conn, heartbeat)
    # A forked worker inherits the parent's obs session and cell hook.
    # Cells here run on neither: what a cell needs arrives in its task.
    obs.install(None)
    cells.set_cell_hook(None)
    runtime.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # supervisor died or closed the pipe: just exit
        if message[0] == "exit":
            try:
                runtime.send(("bye",))
            except (OSError, ValueError):
                pass
            return
        _, task_id, spec, plan = message
        runtime.begin(task_id)
        try:
            if plan is not None:
                cells.set_cell_hook(_ChaosInstaller(plan, runtime))
            result = cells.simulate_spec(spec)
            payload = ("result", task_id, result)
        except (KeyboardInterrupt, SystemExit):
            raise  # graceful crash: the supervisor resumes the cell
        except BaseException as exc:
            payload = ("error", task_id, exc)
        finally:
            cells.set_cell_hook(None)
            runtime.end()
        try:
            # Connection.send pickles fully before writing, so a pickling
            # error raises with the pipe still clean.
            runtime.send(payload)
        except OSError:
            return  # parent is gone
        except (pickle.PickleError, TypeError, AttributeError) as exc:
            # An unpicklable result/exception must not look like a crash:
            # ship a structured stand-in instead.
            runtime.send((
                "error",
                task_id,
                WorkerCrashError(
                    "worker outcome could not be pickled",
                    worker=worker_id,
                    outcome=type(payload[2]).__name__,
                    error=repr(exc)[:200],
                ),
            ))
