"""Typed metric registry with label sets.

The :class:`MetricRegistry` is the scalar half of the observability layer.
It holds counters and histograms (:class:`repro.sim.stats.Histogram`
buckets), plus:

* **gauges** (last-set value plus observed min/max),
* **label sets** — ``registry.counter("engine.events", kind="page_arrived")``
  keeps one time series per label combination,
* tail-aware flattening — histograms export ``.min/.max/.p50/.p99``
  alongside ``.count/.mean``.

Metric objects are memoised by ``(type, name, labels)``: repeated lookups
return the same object, so hot paths can cache the metric once and call
``inc``/``record`` with no dictionary traffic.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.sim.stats import Histogram as _Histogram

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Metric:
    """Common identity for every metric: a name plus a label set."""

    kind = "abstract"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        return f"{self.name}{_render_labels(self.labels)}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.full_name})"


class CounterMetric(Metric):
    """Monotonically increasing counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class GaugeMetric(Metric):
    """Last-set value, with the observed extremes retained."""

    kind = "gauge"
    __slots__ = ("value", "min", "max")

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def set(self, value: float) -> None:
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)


class HistogramMetric(_Histogram, Metric):
    """Labelled histogram; inherits bucketing/percentiles from sim.stats."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, bucket_width: float) -> None:
        _Histogram.__init__(self, name, bucket_width)
        self.labels = labels

    @property
    def full_name(self) -> str:
        return f"{self.name}{_render_labels(self.labels)}"

    def merge_from(self, other: _Histogram) -> None:
        """Fold another histogram's samples into this one (same width)."""
        for bucket, n in other.buckets.items():
            # Re-bucket by the source bucket's lower edge when widths differ.
            edge = bucket * other.bucket_width
            target = int(edge // self.bucket_width)
            self.buckets[target] = self.buckets.get(target, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)


class MetricRegistry:
    """Process-wide bag of typed, labelled metrics."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, LabelKey], Metric] = {}

    # ------------------------------------------------------------------
    # Lookup / creation
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> CounterMetric:
        key = ("counter", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = CounterMetric(name, key[2])
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        key = ("gauge", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = GaugeMetric(name, key[2])
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def histogram(
        self, name: str, bucket_width: float = 1.0, **labels: Any
    ) -> HistogramMetric:
        key = ("histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = HistogramMetric(name, key[2], bucket_width)
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Aggregation over label sets
    # ------------------------------------------------------------------
    def series(self, name: str, kind: str | None = None) -> list[Metric]:
        """Every metric registered under ``name`` (one per label set)."""
        return [
            m
            for (k, n, _), m in self._metrics.items()
            if n == name and (kind is None or k == kind)
        ]

    def total(self, name: str) -> float:
        """Sum of a counter's value across all of its label sets."""
        return sum(m.value for m in self.series(name, "counter"))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flatten every metric into ``name{labels}[.stat] -> value``."""
        out: dict[str, float] = {}
        for metric in self._ordered():
            full = metric.full_name
            if metric.kind == "counter":
                out[full] = metric.value
            elif metric.kind == "gauge":
                out[full] = metric.value
                if metric.max is not None:
                    out[f"{full}.max"] = metric.max
            else:  # histogram
                out[f"{full}.count"] = metric.count
                out[f"{full}.mean"] = metric.mean
                out[f"{full}.min"] = metric.min if metric.min is not None else 0.0
                out[f"{full}.max"] = metric.max if metric.max is not None else 0.0
                out[f"{full}.p50"] = metric.percentile(50)
                out[f"{full}.p99"] = metric.percentile(99)
        return out

    def rows(self) -> list[dict[str, Any]]:
        """One structured row per metric (for JSON/CSV export)."""
        rows = []
        for metric in self._ordered():
            row: dict[str, Any] = {
                "type": metric.kind,
                "name": metric.name,
                "labels": dict(metric.labels),
            }
            if metric.kind == "counter":
                row["value"] = metric.value
            elif metric.kind == "gauge":
                row.update(value=metric.value, min=metric.min, max=metric.max)
            else:
                row.update(
                    count=metric.count,
                    mean=metric.mean,
                    min=metric.min,
                    max=metric.max,
                    p50=metric.percentile(50),
                    p99=metric.percentile(99),
                )
            rows.append(row)
        return rows

    def _ordered(self) -> list[Metric]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._ordered())

    def __len__(self) -> int:
        return len(self._metrics)
