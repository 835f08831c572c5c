"""The asyncio simulation server: admission, dedupe, dispatch, drain.

Request lifecycle (see ``docs/serving.md`` for the ops view)::

    POST /v1/run
      └─ validate (protocol.py)            → 400 structured errors
      └─ cache probe (cache.probe_cache)   → immediate warm answer
      └─ dedupe (in-flight map by memo key)→ ride the existing future
      └─ admission (bounded backlog)       → 429 + Retry-After when full
      └─ dispatch (FIFO; as soon as one of the ``jobs`` workers is free)
      └─ common.submit_cell                → supervised worker pool
                                             (crash isolation, restarts,
                                             checkpoint handoff, retries)
      └─ settle as the cell's future lands: ticket resolves, cache
         entry unpinned, metrics updated, next waiting ticket dispatched

At most ``policy.jobs`` cells are ever on the pool: a ticket that finds
no free worker waits in a FIFO, and each settled cell dispatches the
next one.  Each cell's future is awaited on the event loop
(``asyncio.wrap_future``), so a fast cell answers while a slow one
still runs.  All bookkeeping (wait queue, dedupe map, metrics) is
mutated only on the event loop thread; results land, and are cached,
on the pool's loop thread.

Graceful drain (SIGTERM/SIGINT or :meth:`ReproServer.request_shutdown`):
new runs are refused with 503, cells already on the pool finish — cells
bounded by a wall budget checkpoint instead of being lost — and every
request still waiting for a worker resolves to a structured
:class:`~repro.errors.ServerShutdownError` envelope.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.errors import (
    CellFailure,
    ServerSaturatedError,
    ServerShutdownError,
)
from repro.experiments.cache import probe_cache, run_cache
from repro.experiments.cells import memo_key
from repro.experiments.common import submit_cell
from repro.experiments.policy import RunPolicy, default_policy
from repro.obs.serve import ServeMetrics
from repro.pool import SupervisedPool
from repro.serve import handlers
from repro.serve.protocol import spec_from_request
from repro.simulator import SimulationResult


@dataclass
class ServeConfig:
    """Tunables for one server instance (all have sane defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port (see ReproServer.port)
    #: How this server runs cells: run cache (``cache_enabled=False``
    #: bypasses it entirely), pool size (``jobs``: worker processes, at
    #: least one), supervision, the server-side per-cell wall budget
    #: (requests can only tighten it), checkpointing (stalled cells
    #: checkpoint and resume here on re-request), and process-level
    #: chaos.  Default: the process default policy at construction.
    policy: RunPolicy = field(default_factory=default_policy)
    #: Maximum admitted-but-unfinished requests before 429.
    queue_limit: int = 64
    #: Request body size limit (bytes).
    max_body: int = 1 << 20
    #: Grace period for dispatched cells to finish during drain.
    drain_grace: float = 30.0
    #: Heartbeat cadence for streaming responses.
    heartbeat: float = 0.25
    #: Optional file announcing readiness: JSON ``{host, port, pid}``.
    ready_file: str | None = None
    #: Print a "listening" line on stdout when ready.
    announce: bool = False


class _Ticket:
    """One admitted in-flight cell shared by every deduped subscriber."""

    __slots__ = ("spec", "key", "request_id", "future", "subscribers", "use_cache")

    def __init__(self, spec, key, request_id, future, use_cache):
        self.spec = spec
        self.key = key
        self.request_id = request_id
        self.future = future
        self.subscribers: list[asyncio.Queue] = []
        self.use_cache = use_cache

    def publish(self, event: dict) -> None:
        for queue in list(self.subscribers):
            queue.put_nowait(event)


class ReproServer:
    """A long-lived simulation server over the run cache.

    Start it blocking with :meth:`run` (the CLI) or on a background
    thread (tests/benchmarks: ``Thread(target=server.run)`` then
    :meth:`wait_ready`).  :meth:`request_shutdown` is thread-safe and
    triggers exactly the SIGTERM drain path.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.policy = self.config.policy
        #: A failing cell answers its own request with an envelope.
        self._cell_policy = replace(self.policy, on_error="keep-going")
        self.cache = run_cache(self.policy)
        self.metrics = ServeMetrics()
        self.port: int | None = None
        self.started_at = time.monotonic()
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._request_ids = itertools.count(1)
        #: Every admitted, unsettled ticket by memo key (the backlog).
        self._inflight: dict[tuple, _Ticket] = {}
        #: Admitted tickets waiting for a free worker, oldest first.
        self._waiting: deque[_Ticket] = deque()
        self._shutdown_event: asyncio.Event | None = None
        #: One task per cell on the pool, awaiting its future.
        self._running: set[asyncio.Task] = set()
        #: Each open connection's handler task and its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._pool = None  # the SupervisedPool, built by _main
        self._ema_cell_seconds = 0.25

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run the server until drained (blocking; own event loop)."""
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()  # never leave wait_ready() hanging

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until the listener is up; returns the bound port."""
        if not self._ready.wait(timeout):
            raise TimeoutError("server did not become ready in time")
        if self.port is None:
            raise RuntimeError("server failed to start")
        return self.port

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (the SIGTERM path)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._begin_shutdown)
            except RuntimeError:
                pass  # loop already shut down

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def backlog(self) -> int:
        return len(self._inflight)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        # Started before the listener so a pool that cannot spawn fails
        # startup loudly.
        self._pool = SupervisedPool(self.policy.pool_config(self.policy.jobs))
        self._pool.start()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        self._announce_ready()
        self._ready.set()
        try:
            await self._shutdown_event.wait()
            server.close()
            await server.wait_closed()
            await self._drain()
            # Close open connections and let their handlers finish, so
            # none is cancelled mid-close when the loop ends.
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                grace = self.config.drain_grace
                await asyncio.wait(set(self._connections), timeout=grace)
        finally:
            if self._pool is not None:
                self._pool.close()

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # test servers run on background threads
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._begin_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform without loop signal support

    def _announce_ready(self) -> None:
        payload = {
            "host": self.config.host,
            "port": self.port,
            "pid": os.getpid(),
        }
        if self.config.ready_file:
            path = pathlib.Path(self.config.ready_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(payload) + "\n")
            os.replace(tmp, path)
        if self.config.announce:
            print(
                f"repro-serve listening on {self.config.host}:{self.port} "
                f"(pid {os.getpid()})",
                flush=True,
            )

    def _begin_shutdown(self) -> None:
        if self._draining:
            return
        self._draining = True  # dispatch stops now
        self._shutdown_event.set()

    async def _drain(self) -> None:
        """Let cells on the pool finish; refuse everything else."""
        waiting, self._waiting = list(self._waiting), deque()
        self._refuse(waiting, "server shut down before the cell was executed")
        if self._running:
            await asyncio.wait(self._running, timeout=self.config.drain_grace)
        self._refuse(list(self._inflight.values()), "drain grace period expired")

    def _refuse(self, tickets: list[_Ticket], reason: str) -> None:
        for ticket in tickets:
            self._settle_ticket(
                ticket, ServerShutdownError(reason, request_id=ticket.request_id)
            )

    # ------------------------------------------------------------------
    # Admission / dedupe
    # ------------------------------------------------------------------
    def submit(
        self, fields: dict, events: asyncio.Queue | None = None
    ) -> tuple[_Ticket | None, SimulationResult | None, bool]:
        """Admit one validated run request (event-loop thread only).

        Returns ``(ticket, cached_result, deduped)``: exactly one of
        ``ticket``/``cached_result`` is set.  ``events`` (a streaming
        request's queue) subscribes to the ticket before it can be
        dispatched, so it sees the ``batched`` event.  Raises
        :class:`ServerShutdownError` while draining and
        :class:`ServerSaturatedError` when the backlog is full.
        """
        if self._draining:
            raise ServerShutdownError("server is draining; request refused")
        spec = spec_from_request(fields, self.policy)
        key = memo_key(spec)

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.dedupe_hit()
            if events is not None:
                existing.subscribers.append(events)
            return existing, None, True

        use_cache = self.policy.cache_enabled and not fields["no_cache"]
        if use_cache:
            hit = probe_cache(spec, policy=self.policy)
            if hit is not None:
                self.metrics.cache_hit()
                return None, hit, False
        self.metrics.cache_miss()

        if self.backlog >= self.config.queue_limit:
            self.metrics.rejected("saturated")
            raise ServerSaturatedError(
                f"admission queue is full ({self.backlog} in flight)",
                retry_after=self._retry_after(),
            )

        ticket = _Ticket(
            spec=spec,
            key=key,
            request_id=f"r{next(self._request_ids):06d}",
            future=self._loop.create_future(),
            use_cache=use_cache,
        )
        if events is not None:
            ticket.subscribers.append(events)
        self._inflight[key] = ticket
        self.cache.pin(key)
        self._waiting.append(ticket)
        self._dispatch()
        self.metrics.set_inflight(len(self._inflight))
        return ticket, None, False

    def _retry_after(self) -> int:
        # Live workers share the backlog, so degraded capacity (crashed
        # workers mid-respawn) stretches the estimate: half the fleet
        # alive means double the wait.
        estimate = self.backlog * self._ema_cell_seconds
        estimate /= max(self._pool.workers_alive(), 0.5)
        return max(1, int(round(estimate)))

    def pool_health(self) -> dict:
        """Supervision summary for ``/v1/healthz``."""
        snap = self._pool.stats()
        return {
            "workers_alive": snap["workers"]["alive"],
            "workers_target": snap["workers"]["target"],
            "restarts": snap["restarts"],
            "quarantined_keys": len(snap["quarantined_keys"]),
            "broken": snap["broken"],
        }

    def _settle_ticket(self, ticket: _Ticket, outcome) -> None:
        """Resolve one ticket and release its admission slot (loop thread)."""
        if ticket.future.done():
            return  # already refused by a drain that outran its cell
        del self._inflight[ticket.key]
        self.cache.unpin(ticket.key)
        self.metrics.set_queue_depth(len(self._waiting))
        self.metrics.set_inflight(len(self._inflight))
        ticket.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Hand waiting tickets to the pool, oldest first, while one of
        the ``jobs`` workers is free and the server is not draining
        (loop thread; called on admission and whenever a cell settles)."""
        while (
            self._waiting
            and not self._draining
            and len(self._running) < self.policy.jobs
        ):
            ticket = self._waiting.popleft()
            self.metrics.cell_dispatched()
            ticket.publish(
                {
                    "event": "batched",
                    "request_id": ticket.request_id,
                    "batch_size": 1,
                }
            )
            future = submit_cell(
                ticket.spec,
                self._cell_policy,
                pool=self._pool,
                use_cache=ticket.use_cache,
            )
            task = asyncio.ensure_future(self._await_cell(ticket, future))
            self._running.add(task)
            task.add_done_callback(self._cell_done)
        self.metrics.set_queue_depth(len(self._waiting))

    def _cell_done(self, task: asyncio.Task) -> None:
        self._running.discard(task)
        self._dispatch()

    async def _await_cell(self, ticket: _Ticket, future) -> None:
        started = time.monotonic()
        try:
            outcome = await asyncio.wrap_future(future)
        except Exception as exc:  # a dispatch bug fails the cell, not the server
            outcome = exc
        elapsed = max(time.monotonic() - started, 1e-3)
        self._ema_cell_seconds = 0.7 * self._ema_cell_seconds + 0.3 * elapsed
        self._settle_ticket(ticket, outcome)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[asyncio.current_task()] = writer
        try:
            await handlers.handle_connection(self, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass  # client went away; nothing shared is affected
        except Exception:
            pass  # handler already degraded to a 500 envelope if possible
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass
            finally:
                del self._connections[asyncio.current_task()]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``GET /v1/stats`` payload."""
        run_cache = dict(self.cache.stats)
        return {
            "server": self.metrics.snapshot(evictions=run_cache["evictions"]),
            "run_cache": run_cache,
            "pinned_entries": self.cache.pinned(),
            "backlog": self.backlog,
            "draining": self._draining,
            "uptime_s": time.monotonic() - self.started_at,
            "pool": self._pool.stats(),
            "config": {
                "jobs": self.policy.jobs,
                "queue_limit": self.config.queue_limit,
                "cache_quota_bytes": self.policy.cache_quota_bytes,
                "cell_timeout": self.policy.cell_timeout,
                "checkpoint_dir": self.policy.checkpoint_dir,
                "breaker_threshold": self.policy.breaker_threshold,
            },
        }


def main_loop(config: ServeConfig) -> int:
    """Blocking entry used by the CLI: run one server until drained."""
    server = ReproServer(config)
    try:
        server.run()
    except KeyboardInterrupt:
        server.request_shutdown()
    if config.announce:
        print("repro-serve drained cleanly", file=sys.stderr, flush=True)
    return 0
