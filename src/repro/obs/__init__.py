"""Unified instrumentation layer: span tracing + typed metrics.

One :class:`Observability` object bundles a :class:`~repro.obs.tracer.Tracer`
(spans/instants on named tracks, exported as a Perfetto-loadable Chrome
trace) and a :class:`~repro.obs.metrics.MetricRegistry` (counters, gauges,
histograms with label sets).  The simulator and the experiment harness are
instrumented against it behind a *module-level no-op guard*: when no
session is active every hook site reduces to one ``is not None`` check, so
``--obs off`` costs nothing measurable (see
``benchmarks/bench_obs_overhead.py``).

Usage::

    from repro import obs

    with obs.session("full") as ob:
        result = GpuUvmSimulator(workload, config).run()
    obs.write_chrome_trace(ob.tracer, "trace.json")
    obs.write_metrics_json(ob.metrics, "metrics.json")
    print(obs.render_report(ob.tracer, ob.metrics))

Modes:

* ``off``   — no session; instrumentation is inert (the guard).
* ``light`` — batch/fault-handling spans, eviction markers, DMA transfer
  spans, per-SM warp-stall spans, and all aggregate metrics.
* ``full``  — ``light`` plus high-frequency detail: per-page arrival
  instants, per-event-kind engine dispatch counts, and live fault-buffer
  occupancy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import ConfigError
from repro.obs.analytics import (
    BUCKETS,
    FEATURE_FIELDS,
    AnalyticsSession,
    BatchObservation,
    CycleAttribution,
    FlightRecorder,
    RunAnalytics,
    analyze_run,
    build_report,
    feature_row,
    feature_rows,
    render_analysis,
    validate_report,
    write_features,
    write_features_csv,
    write_features_jsonl,
    write_flight_dump,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    metrics_dict,
    render_chrome_trace,
    write_chrome_trace,
    write_metrics,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricRegistry,
)
from repro.obs.profile import ComponentProfiler, profile_simulation
from repro.obs.report import render_batches, render_report
from repro.obs.serve import ServeMetrics
from repro.obs.tracer import TraceEvent, Tracer

MODES = ("off", "light", "full")


class Observability:
    """One instrumentation session: a tracer plus a metric registry."""

    def __init__(
        self,
        mode: str = "full",
        max_trace_events: int = 200_000,
        analytics: bool = False,
        flight_events: int = 64,
    ) -> None:
        if mode not in ("light", "full"):
            raise ConfigError(
                f"observability mode must be one of {MODES}, got {mode!r} "
                "(for 'off', simply do not create a session)"
            )
        self.mode = mode
        #: True when high-frequency detail instrumentation is on.
        self.full = mode == "full"
        self.tracer = Tracer(max_events=max_trace_events)
        self.metrics = MetricRegistry()
        #: Batch-level analytics (:mod:`repro.obs.analytics`): stall
        #: attribution, BatchObservation stream, flight recorder.  None
        #: keeps every analytics hook a single pointer test.
        self.analytics = (
            AnalyticsSession(flight_events=flight_events) if analytics else None
        )
        # Per-event-kind dispatch counters, memoised by callback qualname
        # so the engine's hot loop does one dict lookup per event.
        self._kind_counters: dict[str, CounterMetric] = {}

    def count_event(self, callback: Callable) -> None:
        """Attribute one engine dispatch to the callback's kind.

        Interned event objects advertise a ``kind`` class attribute;
        ``functools.partial`` wrappers are unwrapped to their target.
        Plain closures fall back to ``__qualname__``.
        """
        qualname = getattr(callback, "kind", None)
        if qualname is None:
            inner = getattr(callback, "func", None)  # functools.partial
            if inner is not None:
                callback = inner
            qualname = getattr(callback, "__qualname__", "?")
        counter = self._kind_counters.get(qualname)
        if counter is None:
            kind = qualname.replace(".<locals>.<lambda>", "") or "?"
            counter = self.metrics.counter("engine.events", kind=kind)
            self._kind_counters[qualname] = counter
        counter.inc()

    def report(self) -> str:
        """The session's human-readable text summary."""
        return render_report(self.tracer, self.metrics)


# ----------------------------------------------------------------------
# Module-level no-op guard: the active session, or None when obs is off.
# Instrumented components read this once at construction; their hot paths
# then guard on a plain `is not None`.
# ----------------------------------------------------------------------
_current: Observability | None = None


def current() -> Observability | None:
    """The active session (None when observability is off)."""
    return _current


def install(obs: Observability | None) -> Observability | None:
    """Make ``obs`` the active session; returns the previous one."""
    global _current
    previous = _current
    _current = obs
    return previous


def configure(
    mode: str = "full",
    max_trace_events: int = 200_000,
    analytics: bool = False,
    flight_events: int = 64,
) -> Observability | None:
    """Create and install a session for ``mode`` (``"off"`` uninstalls)."""
    if mode not in MODES:
        raise ConfigError(f"observability mode must be one of {MODES}, got {mode!r}")
    obs = (
        None
        if mode == "off"
        else Observability(mode, max_trace_events, analytics, flight_events)
    )
    install(obs)
    return obs


@contextmanager
def session(
    mode: str = "full",
    max_trace_events: int = 200_000,
    analytics: bool = False,
    flight_events: int = 64,
) -> Iterator[Observability | None]:
    """Temporarily install a session; restores the previous one on exit."""
    obs = (
        None
        if mode == "off"
        else Observability(mode, max_trace_events, analytics, flight_events)
    )
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)


__all__ = [
    "MODES",
    "Observability",
    "Tracer",
    "TraceEvent",
    "MetricRegistry",
    "ComponentProfiler",
    "profile_simulation",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "current",
    "install",
    "configure",
    "session",
    "chrome_trace",
    "chrome_trace_events",
    "render_chrome_trace",
    "write_chrome_trace",
    "metrics_dict",
    "write_metrics",
    "write_metrics_json",
    "write_metrics_csv",
    "render_batches",
    "render_report",
    "BUCKETS",
    "FEATURE_FIELDS",
    "AnalyticsSession",
    "RunAnalytics",
    "BatchObservation",
    "CycleAttribution",
    "FlightRecorder",
    "analyze_run",
    "build_report",
    "render_analysis",
    "validate_report",
    "feature_row",
    "feature_rows",
    "write_features",
    "write_features_jsonl",
    "write_features_csv",
    "write_flight_dump",
]
