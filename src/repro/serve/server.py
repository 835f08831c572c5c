"""The asyncio simulation server: admission, dedupe, batching, drain.

Request lifecycle (see ``docs/serving.md`` for the ops view)::

    POST /v1/run
      └─ validate (protocol.py)            → 400 structured errors
      └─ cache probe (common.probe_cache)  → immediate warm answer
      └─ dedupe (in-flight map by memo key)→ ride the existing future
      └─ admission (bounded backlog)       → 429 + Retry-After when full
      └─ batcher (collect up to batch_window / batch_max)
      └─ run_cells on the batch thread     → supervised worker pool
                                             (crash isolation, restarts,
                                             checkpoint handoff) plus the
                                             existing retry machinery
      └─ settle: futures resolve, cache entry unpinned, metrics updated

All bookkeeping (queue, dedupe map, backlog counter, metrics) is
mutated only on the event loop thread; the only other thread is the
single batch executor, which touches nothing but ``run_cells``.

Graceful drain (SIGTERM/SIGINT or :meth:`ReproServer.request_shutdown`):
new runs are refused with 503, the in-flight batch finishes — cells
bounded by a wall budget checkpoint instead of being lost (PR 7) — and
every request still queued resolves to a structured
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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

_STOP = object()  # batcher sentinel


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
    #: Grace period for the in-flight batch to finish during drain.
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
        "admitted_at",
    )

    def __init__(self, spec, key, request_id, future, use_cache):
        self.spec = spec
        self.key = key
        self.request_id = request_id
        self.future = future
        self.subscribers: list[asyncio.Queue] = []
        self.use_cache = use_cache
        self.admitted_at = time.monotonic()

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
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-batch"
        )
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
        batcher = asyncio.create_task(self._batch_loop())
        self._announce_ready()
        self._ready.set()
        try:
            await self._shutdown_event.wait()
            server.close()
            await server.wait_closed()
            await self._drain(batcher)
        finally:
            if not batcher.done():
                batcher.cancel()
            self._executor.shutdown(wait=False)
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
        self._queue.put_nowait(_STOP)

    async def _drain(self, batcher: asyncio.Task) -> None:
        """Let the in-flight batch finish; refuse everything else."""
        try:
            await asyncio.wait_for(
                asyncio.shield(batcher), timeout=self.config.drain_grace
            )
        except asyncio.TimeoutError:
            batcher.cancel()
            self._fail_all_pending("drain grace period expired")
        # Whatever the batcher left queued has been refused by now; any
        # ticket that slipped past both is settled defensively.
        self._fail_all_pending("server shut down")

    def _fail_all_pending(self, reason: str) -> None:
        for ticket in list(self._inflight.values()):
            if not ticket.future.done():
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
        # Degraded capacity (crashed workers mid-respawn) stretches the
        # estimate: half the fleet alive means double the wait.
        estimate = self._backlog * self._ema_cell_seconds
        estimate *= self.policy.jobs / max(self._pool.workers_alive(), 0.5)
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
        if self._inflight.get(ticket.key) is ticket:
            del self._inflight[ticket.key]
        self._backlog -= 1
        self.cache.unpin(ticket.key)
        self.metrics.set_queue_depth(
            self._queue.qsize() if self._queue else 0
        )
        self.metrics.set_inflight(len(self._inflight))
        if not ticket.future.done():
            ticket.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            ticket = await self._queue.get()
            if ticket is _STOP or self._draining:
                self._refuse([] if ticket is _STOP else [ticket])
                return
            batch = [ticket]
            deadline = loop.time() + self.config.batch_window
            stopping = False
            while len(batch) < self.config.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            if stopping or self._draining:
                # Collected but not executing: refused, per the drain
                # contract — only cells already on the worker count as
                # in-flight.
                self._refuse(batch)
                return
            await self._execute_batch(batch)

    def _refuse(self, tickets: list[_Ticket]) -> None:
        """Fail ``tickets`` plus everything still queued with 503s."""
        while self._queue is not None and not self._queue.empty():
            entry = self._queue.get_nowait()
            if entry is not _STOP:
                tickets.append(entry)
        for ticket in tickets:
            self._settle_ticket(
                ticket,
                ServerShutdownError(
                    "server shut down before the cell was executed",
                    request_id=ticket.request_id,
                ),
            )

    async def _execute_batch(self, batch: list[_Ticket]) -> None:
        self.metrics.observe_batch(len(batch))
        for ticket in batch:
            ticket.publish(
                {
                    "event": "batched",
                    "request_id": ticket.request_id,
                    "batch_size": len(batch),
                }
            )
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_batch, batch
            )
        except Exception as exc:  # run_cells bug: fail the batch, not the server
            outcomes = [exc] * len(batch)
        elapsed = time.monotonic() - started
        per_cell = max(elapsed / len(batch), 1e-3)
        self._ema_cell_seconds = 0.7 * self._ema_cell_seconds + 0.3 * per_cell
        for ticket, outcome in zip(batch, outcomes):
            self._settle_ticket(ticket, outcome)

    def _run_batch(self, batch: list[_Ticket]) -> list:
        """Execute one batch on the worker thread via ``run_cells``.

        Tickets are partitioned by their cache policy (a ``no_cache``
        request must neither read nor write the shared store); each
        partition rides one ``run_cells`` call with local keep-going
        semantics so one failing cell never poisons its batchmates.
        """
        outcomes: list = [None] * len(batch)
        for use_cache in (True, False):
            indices = [
                i for i, t in enumerate(batch) if t.use_cache is use_cache
            ]
            if not indices:
                continue
            results = common.run_cells(
                [batch[i].spec for i in indices],
                use_cache=use_cache,
                label="serve",
                on_error="keep-going",
                pool=self._pool,
                policy=self.policy,
            )
            for i, result in zip(indices, results):
                outcomes[i] = result
        return outcomes

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
