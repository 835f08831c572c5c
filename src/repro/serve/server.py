"""The asyncio simulation server: admission, dedupe, batching, drain.

Request lifecycle (see ``docs/serving.md`` for the ops view)::

    POST /v1/run
      └─ validate (protocol.py)            → 400 structured errors
      └─ cache probe (common.probe_cache)  → immediate warm answer
      └─ dedupe (in-flight map by memo key)→ ride the existing future
      └─ admission (bounded backlog)       → 429 + Retry-After when full
      └─ batcher (once a worker is free, collect up to
         batch_window / batch_max)
      └─ common.submit_cell per cell       → supervised worker pool
                                             (crash isolation, restarts,
                                             checkpoint handoff, retries)
      └─ settle per cell as its future lands: ticket resolves, cache
         entry unpinned, metrics updated

There is no batch thread: each cell's future is awaited on the event
loop (``asyncio.wrap_future``), so a batch never waits for the one
before it, and a fast cell answers while a slow batchmate still runs.
All bookkeeping (queue, dedupe map, backlog counter, metrics) is
mutated only on the event loop thread; results land, and are cached,
on the pool's loop thread.

Graceful drain (SIGTERM/SIGINT or :meth:`ReproServer.request_shutdown`):
new runs are refused with 503, cells already dispatched to the pool
finish — cells bounded by a wall budget checkpoint instead of being
lost — and every request still queued resolves to a structured
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
from dataclasses import dataclass, field, replace

from repro.errors import (
    CellFailure,
    ServerSaturatedError,
    ServerShutdownError,
)
from repro.experiments import common
from repro.obs.serve import ServeMetrics
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
    policy: common.RunPolicy = field(default_factory=common.default_policy)
    #: Maximum admitted-but-unfinished requests before 429.
    queue_limit: int = 64
    #: How long the batcher waits to coalesce concurrent requests.
    batch_window: float = 0.01
    #: Hard cap on cells per batch.
    batch_max: int = 16
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

    __slots__ = (
        "spec",
        "key",
        "request_id",
        "future",
        "subscribers",
        "use_cache",
        "dispatched",
    )

    def __init__(self, spec, key, request_id, future, use_cache):
        self.spec = spec
        self.key = key
        self.request_id = request_id
        self.future = future
        self.subscribers: list[asyncio.Queue] = []
        self.use_cache = use_cache
        self.dispatched = False  # handed to the pool: a drain lets it finish

    def publish(self, event: dict) -> None:
        for queue in list(self.subscribers):
            queue.put_nowait(event)


class ReproServer:
    """A long-lived batching simulation server over the run cache.

    Start it blocking with :meth:`run` (the CLI) or on a background
    thread (tests/benchmarks: ``Thread(target=server.run)`` then
    :meth:`wait_ready`).  :meth:`request_shutdown` is thread-safe and
    triggers exactly the SIGTERM drain path.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.policy = self.config.policy
        #: One failing cell never fails its batchmates.
        self._cell_policy = replace(self.policy, on_error="keep-going")
        self.cache = common.run_cache(self.policy)
        self.metrics = ServeMetrics()
        self.port: int | None = None
        self.started_at = time.monotonic()
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._request_ids = itertools.count(1)
        self._backlog = 0
        self._inflight: dict[tuple, _Ticket] = {}
        self._queue: asyncio.Queue | None = None
        self._shutdown_event: asyncio.Event | None = None
        #: One task per dispatched cell, awaiting its future.
        self._running: set[asyncio.Task] = set()
        self._batcher: asyncio.Task | None = None
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
        return self._backlog

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._shutdown_event = asyncio.Event()
        self._batcher = asyncio.create_task(self._batch_loop())
        from repro.pool import SupervisedPool

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
        finally:
            self._batcher.cancel()
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
        self._draining = True
        self._shutdown_event.set()
        # Dispatch stops now; a batch it was collecting stays undispatched.
        self._batcher.cancel()

    async def _drain(self) -> None:
        """Let dispatched cells finish; refuse everything else."""
        self._refuse(
            [t for t in self._inflight.values() if not t.dispatched],
            "server shut down before the cell was executed",
        )
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
        self, fields: dict
    ) -> tuple[_Ticket | None, SimulationResult | None, bool]:
        """Admit one validated run request (event-loop thread only).

        Returns ``(ticket, cached_result, deduped)``: exactly one of
        ``ticket``/``cached_result`` is set.  Raises
        :class:`ServerShutdownError` while draining and
        :class:`ServerSaturatedError` when the backlog is full.
        """
        if self._draining:
            raise ServerShutdownError("server is draining; request refused")
        spec = spec_from_request(fields, self.policy)
        key = common._memo_key(spec)

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.dedupe_hit()
            return existing, None, True

        use_cache = self.policy.cache_enabled and not fields["no_cache"]
        if use_cache:
            hit = common.probe_cache(spec, policy=self.policy)
            if hit is not None:
                self.metrics.cache_hit()
                return None, hit, False
        self.metrics.cache_miss()

        if self._backlog >= self.config.queue_limit:
            self.metrics.rejected("saturated")
            raise ServerSaturatedError(
                f"admission queue is full ({self._backlog} in flight)",
                retry_after=self._retry_after(),
            )

        ticket = _Ticket(
            spec=spec,
            key=key,
            request_id=f"r{next(self._request_ids):06d}",
            future=self._loop.create_future(),
            use_cache=use_cache,
        )
        self._inflight[key] = ticket
        self._backlog += 1
        self.cache.pin(key)
        self._queue.put_nowait(ticket)
        self.metrics.set_queue_depth(self._queue.qsize())
        self.metrics.set_inflight(len(self._inflight))
        return ticket, None, False

    def _retry_after(self) -> int:
        # Live workers share the backlog, so degraded capacity (crashed
        # workers mid-respawn) stretches the estimate: half the fleet
        # alive means double the wait.
        estimate = self._backlog * self._ema_cell_seconds
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
        if self._inflight.get(ticket.key) is ticket:
            del self._inflight[ticket.key]
        self._backlog -= 1
        self.cache.unpin(ticket.key)
        self.metrics.set_queue_depth(
            self._queue.qsize() if self._queue else 0
        )
        self.metrics.set_inflight(len(self._inflight))
        ticket.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # A batch waits for a free worker, never for the batch before.
            while len(self._running) >= self.policy.jobs:
                await asyncio.wait(
                    self._running, return_when=asyncio.FIRST_COMPLETED
                )
            batch = [await self._queue.get()]
            deadline = loop.time() + self.config.batch_window
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self._dispatch(batch)

    def _dispatch(self, batch: list[_Ticket]) -> None:
        """Submit every cell of ``batch`` to the pool; each settles alone."""
        self.metrics.observe_batch(len(batch))
        for ticket in batch:
            ticket.publish(
                {
                    "event": "batched",
                    "request_id": ticket.request_id,
                    "batch_size": len(batch),
                }
            )
            ticket.dispatched = True
            future = common.submit_cell(
                ticket.spec,
                self._cell_policy,
                pool=self._pool,
                use_cache=ticket.use_cache,
            )
            task = asyncio.ensure_future(self._await_cell(ticket, future))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

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
            "backlog": self._backlog,
            "draining": self._draining,
            "uptime_s": time.monotonic() - self.started_at,
            "pool": self._pool.stats(),
            "config": {
                "jobs": self.policy.jobs,
                "queue_limit": self.config.queue_limit,
                "batch_window": self.config.batch_window,
                "batch_max": self.config.batch_max,
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
