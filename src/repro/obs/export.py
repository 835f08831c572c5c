"""Exporters: Chrome trace-event JSON, metrics JSON, metrics CSV.

The trace exporter writes the Chrome trace-event format (the ``{"traceEvents":
[...]}`` object form), loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Scopes become named processes, tracks become named
threads, so a simulation shows up as parallel lanes: batches, the eviction
stream, the two DMA channels, and one lane per SM.

Simulated time is cycles at the paper's 1 GHz clock (1 cycle = 1 ns);
trace timestamps are microseconds, so sim-domain timestamps are divided by
1000.  Wall-domain (harness) events are already in microseconds.

Output is deterministic for a deterministic event stream: keys are sorted,
floats are rounded to the nanosecond, and no wall-clock timestamps are
embedded for sim-domain scopes.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib
from typing import Any

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer

#: Chrome trace timestamps are microseconds; sim time is 1 ns cycles.
_CYCLES_PER_US = 1000.0

#: CSV column order for :func:`write_metrics_csv`.
CSV_FIELDS = (
    "type", "name", "labels", "value", "count", "mean", "min", "max",
    "p50", "p99",
)


def _ts(value: float, domain: str) -> float:
    us = value / _CYCLES_PER_US if domain == "sim" else value
    return round(us, 3)


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """The tracer's contents as a list of Chrome trace-event dicts."""
    scopes = tracer.scopes()
    events: list[dict[str, Any]] = []
    # Process/thread naming metadata first: one process per scope, one
    # thread per track.  Pid 0 is reserved by some viewers; offset by 1.
    emitted_scopes = {e.scope for e in tracer.events}
    for scope_id, (label, _domain) in enumerate(scopes):
        if scope_id not in emitted_scopes:
            continue
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": scope_id + 1,
                "tid": 0,
                "args": {"name": label},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": scope_id + 1,
                "tid": 0,
                "args": {"sort_index": scope_id},
            }
        )
    for (scope_id, track), tid in sorted(tracer.tracks().items()):
        if scope_id not in emitted_scopes:
            continue
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": scope_id + 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    tracks = tracer.tracks()
    for event in tracer.events:
        domain = scopes[event.scope][1]
        out: dict[str, Any] = {
            "name": event.name,
            "cat": event.track,
            "ph": event.ph,
            "ts": _ts(event.ts, domain),
            "pid": event.scope + 1,
            "tid": tracks[(event.scope, event.track)],
        }
        if event.ph == "X":
            out["dur"] = _ts(event.dur or 0.0, domain)
        if event.ph == "i":
            out["s"] = "t"  # instant scoped to its thread lane
        if event.args:
            out["args"] = dict(event.args)
        events.append(out)
    return events


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The full Chrome trace object, including drop accounting."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {
            "time_unit": "1 simulated cycle = 1 ns (1 GHz GPU clock)",
            "dropped_events": tracer.dropped,
            "ring_capacity": tracer.max_events,
        },
    }


def render_chrome_trace(tracer: Tracer) -> str:
    """Deterministic JSON text of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), sort_keys=True, indent=1)


def write_chrome_trace(tracer: Tracer, path: str | os.PathLike) -> pathlib.Path:
    """Write the trace JSON to ``path`` (parent dirs created)."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_chrome_trace(tracer) + "\n")
    return target


def metrics_dict(registry: MetricRegistry) -> dict[str, Any]:
    """Structured metrics export: per-metric rows plus the flat snapshot."""
    return {
        "metrics": registry.rows(),
        "snapshot": registry.snapshot(),
    }


def write_metrics_json(
    registry: MetricRegistry, path: str | os.PathLike
) -> pathlib.Path:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(metrics_dict(registry), sort_keys=True, indent=1) + "\n"
    )
    return target


def write_metrics(
    registry: MetricRegistry, path: str | os.PathLike
) -> pathlib.Path:
    """Write ``registry`` as CSV when ``path`` ends in ``.csv``, else as
    JSON."""
    if str(path).endswith(".csv"):
        return write_metrics_csv(registry, path)
    return write_metrics_json(registry, path)


def write_metrics_csv(
    registry: MetricRegistry, path: str | os.PathLike
) -> pathlib.Path:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in registry.rows():
            row = dict(row)
            row["labels"] = ";".join(
                f"{k}={v}" for k, v in sorted(row["labels"].items())
            )
            writer.writerow(row)
    return target
