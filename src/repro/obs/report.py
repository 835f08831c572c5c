"""Human-readable text views of one run and its observability session.

``render_report`` digests the tracer (per-track span counts and busy
time) and the metric registry (counters, gauges, histogram tails) into an
aligned text block — the quick look you print after a run when you don't
want to open the full trace in Perfetto.

``render_batches`` draws an ASCII version of the paper's Figure 2 from a
run's batch records: one lane per batch with the fault-handling window
and the migration stream, plus eviction and arrival markers taken from
the tracer when one recorded the run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.core.batching import BatchRecord
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def _track_table(tracer: Tracer) -> list[str]:
    scopes = tracer.scopes()
    per_track: dict[tuple[int, str], dict[str, float]] = {}
    for event in tracer.events:
        row = per_track.setdefault(
            (event.scope, event.track), {"spans": 0, "instants": 0, "busy": 0.0}
        )
        if event.ph == "X":
            row["spans"] += 1
            row["busy"] += event.dur or 0.0
        elif event.ph == "B":
            row["spans"] += 1
        elif event.ph == "i":
            row["instants"] += 1
    if not per_track:
        return ["  (no trace events recorded)"]
    lines = [
        f"  {'scope':<16} {'track':<16} {'spans':>8} {'instants':>9} "
        f"{'busy':>14}"
    ]
    for (scope, track), row in sorted(per_track.items()):
        label, domain = scopes[scope]
        unit = "cycles" if domain == "sim" else "us"
        lines.append(
            f"  {label:<16} {track:<16} {int(row['spans']):>8} "
            f"{int(row['instants']):>9} {row['busy']:>11,.0f} {unit}"
        )
    return lines


def _label_sort_key(labels) -> tuple:
    """Numeric-aware label ordering: ``sm=2`` sorts before ``sm=10``.

    Plain string ordering interleaves numeric label values
    (``0, 1, 10, 11, 2, ...``), which scrambles per-SM series in the
    report.  Digits compare as integers; everything else stays
    lexicographic (all-numeric values sort before text for the same key).
    """
    return tuple(
        (k, 0, int(v), "") if v.isdigit() else (k, 1, 0, v)
        for k, v in labels
    )


def _metric_sort_key(metric) -> tuple:
    return (metric.kind, metric.name, _label_sort_key(metric.labels))


def _metric_table(registry: MetricRegistry) -> list[str]:
    if not len(registry):
        return ["  (no metrics recorded)"]
    metrics = sorted(registry, key=_metric_sort_key)
    scalars = [m for m in metrics if m.kind != "histogram"]
    histograms = [m for m in metrics if m.kind == "histogram"]
    lines = []
    for metric in scalars:
        if metric.kind == "counter":
            lines.append(f"  {metric.full_name:<44} {_fmt(metric.value):>14}")
        else:
            peak = f" (peak {_fmt(metric.max)})" if metric.max is not None else ""
            lines.append(
                f"  {metric.full_name:<44} {_fmt(metric.value):>14}{peak}"
            )
    if histograms:
        width = max(9, max(len(m.full_name) for m in histograms))
        lines.append("")
        lines.append(
            f"  {'histogram':<{width}} {'n':>8} {'mean':>12} {'min':>10} "
            f"{'p50':>10} {'p99':>10} {'max':>12}"
        )
        for metric in histograms:
            lines.append(
                f"  {metric.full_name:<{width}} {metric.count:>8,} "
                f"{_fmt(metric.mean):>12} {_fmt(metric.min):>10} "
                f"{_fmt(metric.percentile(50)):>10} "
                f"{_fmt(metric.percentile(99)):>10} {_fmt(metric.max):>12}"
            )
    return lines


def render_report(tracer: Tracer, registry: MetricRegistry) -> str:
    """Aligned text report over one tracer + registry pair."""
    lines = ["observability report", "===================="]
    lines.append("")
    lines.append("tracks")
    lines.append("------")
    lines.extend(_track_table(tracer))
    if tracer.dropped:
        lines.append(
            f"  ({tracer.dropped:,} trace events dropped beyond the "
            f"{tracer.max_events:,}-event ring buffer)"
        )
    lines.append("")
    lines.append("metrics")
    lines.append("-------")
    lines.extend(_metric_table(registry))
    return "\n".join(lines)


def _instant_times(tracer: Tracer | None, track: str, name: str) -> list[int]:
    if tracer is None:
        return []
    return sorted(
        e.ts
        for e in tracer.events
        if e.ph == "i" and e.track == track and e.name == name
    )


def render_batches(
    records: Sequence[BatchRecord],
    tracer: Tracer | None = None,
    max_batches: int = 8,
    width: int = 72,
) -> str:
    """ASCII rendering of the first ``max_batches`` completed batches.

    ``#`` marks the GPU-runtime fault-handling window (``begin_time`` to
    ``first_migration_time``), ``=`` the migration stream (to
    ``end_time``).  With the run's ``tracer`` attached, ``!`` marks
    eviction starts (obs ``light`` and ``full``) and ``*`` page arrivals
    (``full`` only).  One lane per batch, a shared time axis in cycles.
    The tracer should hold a single run's simulation events.
    """
    records = records[:max_batches]
    if not records:
        return "(no batches recorded)"
    t0 = records[0].begin_time
    t1 = max(r.end_time for r in records)
    span = max(1, t1 - t0)

    def column(time: int) -> int:
        return min(width - 1, max(0, (time - t0) * (width - 1) // span))

    lines = [
        f"batch timeline: {t0} .. {t1} cycles "
        f"(# fault handling, = migration, ! eviction, * arrival)"
    ]
    markers = (
        ("!", _instant_times(tracer, "eviction", "evict")),
        ("*", _instant_times(tracer, "uvm", "page arrival")),
    )
    for record in records:
        begin = record.begin_time
        fht_end = record.first_migration_time
        end = record.end_time
        lane = [" "] * width
        for c in range(column(begin), column(fht_end) + 1):
            lane[c] = "#"
        for c in range(column(fht_end), column(end) + 1):
            if lane[c] == " ":
                lane[c] = "="
        for mark, times in markers:
            for time in times[bisect_left(times, begin) : bisect_right(times, end)]:
                lane[column(time)] = mark
        lines.append(f"B{record.index:<3d} |{''.join(lane)}|")
    if tracer is not None and tracer.dropped:
        lines.append(
            f"({tracer.dropped:,} trace events dropped beyond the ring; "
            "markers may be missing)"
        )
    return "\n".join(lines)
