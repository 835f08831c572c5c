"""Server-side request metrics for the serving layer (:mod:`repro.serve`).

A thin, typed facade over :class:`~repro.obs.metrics.MetricRegistry`
with exactly the series the ops runbook (``docs/serving.md``) names:
admission queue depth, in-flight cells, dedupe hits, cache hit rate,
dispatched cells, request latency and rejections.  The serving layer
calls these from its event loop; everything is plain counter/gauge
arithmetic, so no locks are needed beyond the registry's own dict ops.

``snapshot()`` is the payload behind ``GET /v1/stats``; its eviction
count is the server's run cache's.
"""

from __future__ import annotations

from repro.obs.metrics import MetricRegistry

#: Request outcomes tracked by :meth:`ServeMetrics.request_finished`.
OUTCOMES = ("ok", "cached", "deduped", "failed", "rejected", "shutdown")


class ServeMetrics:
    """One serving session's metric registry plus derived statistics."""

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._queue_depth = self.registry.gauge("serve.queue_depth")
        self._inflight = self.registry.gauge("serve.inflight")
        self._dispatches = self.registry.counter("serve.dispatches")
        self._latency = self.registry.histogram(
            "serve.latency_ms", bucket_width=5.0
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def request_started(self) -> None:
        self.registry.counter("serve.requests", phase="received").inc()

    def request_finished(self, outcome: str, latency_ms: float | None = None) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown request outcome {outcome!r}")
        self.registry.counter("serve.requests", phase="finished", outcome=outcome).inc()
        if latency_ms is not None:
            self._latency.record(latency_ms)

    def dedupe_hit(self) -> None:
        self.registry.counter("serve.dedupe_hits").inc()

    def cache_hit(self) -> None:
        self.registry.counter("serve.cache", outcome="hits").inc()

    def cache_miss(self) -> None:
        self.registry.counter("serve.cache", outcome="misses").inc()

    def rejected(self, reason: str) -> None:
        self.registry.counter("serve.rejected", reason=reason).inc()

    def stream_aborted(self) -> None:
        self.registry.counter("serve.streams_aborted").inc()

    def set_queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def set_inflight(self, count: int) -> None:
        self._inflight.set(count)

    def cell_dispatched(self) -> None:
        """One cell handed to the pool."""
        self._dispatches.inc()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def _counter_total(self, name: str, **labels) -> float:
        return self.registry.counter(name, **labels).value

    def cache_hit_rate(self) -> float:
        hits = self._counter_total("serve.cache", outcome="hits")
        misses = self._counter_total("serve.cache", outcome="misses")
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self, evictions: int) -> dict:
        """The ``GET /v1/stats`` payload: counters plus derived rates;
        ``evictions`` is the server's run-cache count."""
        finished = {
            outcome: int(
                self._counter_total(
                    "serve.requests", phase="finished", outcome=outcome
                )
            )
            for outcome in OUTCOMES
        }
        dispatches = int(self._dispatches.value)
        latency = self._latency
        return {
            "requests_received": int(
                self._counter_total("serve.requests", phase="received")
            ),
            "requests_finished": finished,
            "dedupe_hits": int(self._counter_total("serve.dedupe_hits")),
            "cache": {
                "hits": int(self._counter_total("serve.cache", outcome="hits")),
                "misses": int(
                    self._counter_total("serve.cache", outcome="misses")
                ),
                "hit_rate": self.cache_hit_rate(),
                "evictions": evictions,
            },
            "queue_depth": self._queue_depth.value,
            "inflight": self._inflight.value,
            "streams_aborted": int(
                self._counter_total("serve.streams_aborted")
            ),
            # Wire v1: each dispatch is a batch of one cell.
            "batches": {
                "count": dispatches,
                "mean_size": 1.0 if dispatches else 0.0,
                "max_size": min(dispatches, 1),
            },
            "latency_ms": {
                "count": latency.count,
                "mean": latency.mean,
                "p50": latency.percentile(50) if latency.count else 0.0,
                "p99": latency.percentile(99) if latency.count else 0.0,
            },
        }
