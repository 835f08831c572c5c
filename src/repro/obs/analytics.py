"""Batch-level analytics: stall attribution, bottleneck reports, flight data.

The tracer answers *where* simulated time goes (spans on tracks); this
module answers *why* a cell is slow at the granularity the paper argues
in — the fault-handling batch.  Four cooperating pieces:

* :class:`BatchObservation` — one per batch, extending the runtime's
  always-on :class:`~repro.core.batching.BatchRecord` (shared, not
  copied: index, boundary times, page counts) with what only analytics
  measures: stale/dup entries, eviction-plan timings, oversubscription
  degree, and the queue depths seen at batch begin.  Emitted by the UVM
  runtime with inputs from the eviction planner
  (:class:`~repro.uvm.eviction.EvictionPlan`), the prefetcher, and the
  fault buffer.
* :class:`CycleAttribution` — per-warp cycle accounting split into
  ``compute / fault_latency / eviction_wait / pcie_queue / replay``
  buckets, charged from the simulator's issue and wake loops, rolled up
  per SM and per cell.  See ``docs/analytics.md`` for the model and the
  identity the test suite locks: the three stall buckets sum exactly to
  ``SimulationResult.warp_stall_cycles``.
* :class:`FlightRecorder` — bounded ring of recent batch records and
  engine events, auto-dumped alongside the failure snapshot when a run
  dies (stall watchdog, invariant violation, chaos injection).
* report builders (:func:`analyze_run`, :func:`build_report`,
  :func:`render_analysis`, :func:`validate_report`) and the per-batch
  feature export (:func:`feature_rows`, :func:`write_features_jsonl`,
  :func:`write_features_csv`) — the stable interface a future policy
  framework trains on (ROADMAP item 5).

Everything here is pure accounting: no hook schedules events or mutates
model state, so enabling analytics cannot perturb simulated behaviour,
and every hot-path hook sits behind an ``is not None`` guard exactly
like the tracer (``analytics=False`` keeps the guards dead).
"""

from __future__ import annotations

import csv
import json
import pathlib
from collections import deque
from dataclasses import dataclass, field

from repro.core.batching import BatchRecord
from repro.errors import ConfigError

#: Attribution buckets, in reporting order.  ``compute`` and ``replay``
#: are busy cycles (first issue vs post-fault re-issue of an op); the
#: other three partition every fault-stall interval.
BUCKETS = (
    "compute",
    "fault_latency",
    "eviction_wait",
    "pcie_queue",
    "replay",
)

#: Stable per-batch feature-vector schema (column order is part of the
#: interface; append new fields at the end, never reorder).
FEATURE_FIELDS = (
    "workload",
    "batch",
    "begin",
    "end",
    "processing_cycles",
    "fault_handling_cycles",
    "preprocess_cycles",
    "migration_cycles",
    "entries",
    "stale_entries",
    "dup_entries",
    "demand_pages",
    "prefetched_pages",
    "migrated_pages",
    "evicted_pages",
    "frame_wait_cycles",
    "eviction_busy_cycles",
    "eviction_window_cycles",
    "eviction_occupancy",
    "buffered_entries",
    "waiting_pages",
    "waiting_warps",
    "pending_frames",
    "h2d_backlog",
    "d2h_backlog",
    "free_frames",
    "capacity",
    "occupancy_pct",
    "to_extra_blocks",
    "prefetch_regions",
    "overflow_faults",
    "replayed_entries",
)


@dataclass
class BatchObservation:
    """One fault-handling batch, observed across its whole lifecycle.

    ``record`` is the runtime's own :class:`BatchRecord` for the batch
    (index, boundary times, entry and page counts); the fields here are
    the values only analytics measures.  Begin-time fields are filled by
    the runtime when the batch opens (post-preprocess, plan in hand);
    ``replayed_entries``/``overflow_faults`` are finalized at batch end.
    """

    record: BatchRecord
    #: Entries dropped because their page was already resident.
    stale_entries: int
    #: Entries beyond the first per page (multiple warps faulting).
    dup_entries: int
    #: Planned GPU runtime fault-handling time (preprocess window);
    #: ``record.fault_handling_time`` is the realised begin-to-first-
    #: migration window, which the eviction plan can move.
    fault_handling_cycles: int
    #: Total cycles migrations waited on eviction-freed frames.
    frame_wait_cycles: int
    eviction_busy_cycles: int
    eviction_window_cycles: int
    eviction_occupancy: float
    # -- queue depths at batch begin -----------------------------------
    buffered_entries: int
    waiting_pages: int
    waiting_warps: int
    pending_frames: int
    h2d_backlog: int
    d2h_backlog: int
    # -- memory / oversubscription degree ------------------------------
    free_frames: int
    capacity: int | None
    occupancy_pct: float
    to_extra_blocks: int
    prefetch_regions: int
    overflow_at_begin: int
    # -- finalized at batch end ----------------------------------------
    replayed_entries: int = 0
    #: Fault-buffer overflows that happened while this batch was open.
    overflow_faults: int = 0


class CycleAttribution:
    """Per-SM cycle buckets; index ``num_sms`` collects SM-less warps."""

    __slots__ = ("num_sms", *BUCKETS)

    def __init__(self, num_sms: int) -> None:
        self.num_sms = num_sms
        n = num_sms + 1
        self.compute = [0] * n
        self.fault_latency = [0] * n
        self.eviction_wait = [0] * n
        self.pcie_queue = [0] * n
        self.replay = [0] * n

    def totals(self) -> dict[str, int]:
        return {bucket: sum(getattr(self, bucket)) for bucket in BUCKETS}

    def per_sm_rows(self) -> list[dict]:
        """One row per SM with any attributed cycles (plus ``other``)."""
        rows = []
        for i in range(self.num_sms + 1):
            row = {bucket: getattr(self, bucket)[i] for bucket in BUCKETS}
            if not any(row.values()):
                continue
            row["sm"] = i if i < self.num_sms else "other"
            rows.append(row)
        return rows


class FlightRecorder:
    """Bounded ring of recent engine/runtime events (crash forensics)."""

    __slots__ = ("capacity", "_ring")

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = max(1, capacity)
        self._ring: deque = deque(maxlen=self.capacity)

    def record(self, kind: str, t: int, **data) -> None:
        entry = {"kind": kind, "t": t}
        if data:
            entry.update(data)
        self._ring.append(entry)

    def snapshot(self) -> list[dict]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class RunAnalytics:
    """Analytics state for one simulation run (one experiment cell)."""

    def __init__(
        self,
        workload: str,
        num_sms: int,
        flight_events: int = 64,
        session: "AnalyticsSession | None" = None,
    ) -> None:
        self.workload = workload
        self.attr = CycleAttribution(num_sms)
        self.batches: list[BatchObservation] = []
        self.flight = FlightRecorder(flight_events)
        self.session = session
        #: Observation for the batch currently being processed.
        self.open_batch: BatchObservation | None = None
        #: Eviction frame-wait of the page being delivered right now
        #: (set by the runtime before fanning a wake out).
        self.arrival_frame_wait = 0
        #: Independently accumulated stall cycles (one add per wake);
        #: must equal the sum of the three stall buckets *and* the
        #: simulator's ``warp_stall_cycles`` — the locked identity.
        self.stall_total = 0
        #: Thread-oversubscription probe (set by the simulator).
        self.oversub_probe = None
        # Filled by finish():
        self.exec_cycles: int | None = None
        self.warp_stall_cycles: int | None = None
        self.faults_raised = 0
        self.migrated_pages = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Hot-path hooks (every caller guards `analytics is not None`)
    # ------------------------------------------------------------------
    def record_stall(self, sm_id: int, start: int, now: int) -> None:
        """Decompose one finished fault-stall interval into buckets.

        ``fault_latency`` covers stall begin to the delivering batch's
        first migration (buffering + interrupt + preprocess);
        ``eviction_wait`` is the part of the migration window the
        delivering page spent waiting on an eviction-freed frame;
        ``pcie_queue`` is the rest (H2D queueing + streaming).  The three
        tile the interval exactly.
        """
        d = now - start
        attr = self.attr
        batch = self.open_batch
        if batch is None:
            attr.fault_latency[sm_id] += d
            self.stall_total += d
            return
        fault = min(now, batch.record.first_migration_time) - start
        if fault < 0:
            fault = 0
        elif fault > d:
            fault = d
        rem = d - fault
        fw = self.arrival_frame_wait
        ev = fw if fw < rem else rem
        attr.fault_latency[sm_id] += fault
        attr.eviction_wait[sm_id] += ev
        attr.pcie_queue[sm_id] += rem - ev
        self.stall_total += d

    # ------------------------------------------------------------------
    # Batch lifecycle (runtime callbacks, batch-boundary frequency)
    # ------------------------------------------------------------------
    def begin_batch(self, record: BatchRecord, **fields) -> BatchObservation:
        batch = BatchObservation(record, **fields)
        self.open_batch = batch
        self.flight.record(
            "batch_begin",
            record.begin_time,
            batch=record.index,
            entries=record.fault_entries,
            pages=record.migrated_pages,
            evicted=record.evicted_pages,
        )
        return batch

    def end_batch(self, replayed: int, overflow_now: int) -> None:
        """Finalize the open batch; its record's ``end_time`` is set."""
        batch = self.open_batch
        if batch is None:
            return
        batch.replayed_entries = replayed
        batch.overflow_faults = overflow_now - batch.overflow_at_begin
        self.open_batch = None
        self.batches.append(batch)
        record = batch.record
        self.flight.record(
            "batch_end",
            record.end_time,
            batch=record.index,
            processing=record.processing_time,
            replayed=replayed,
        )

    def finish(self, result) -> None:
        """Capture the run's result aggregates for the report."""
        self.exec_cycles = result.exec_cycles
        self.warp_stall_cycles = result.warp_stall_cycles
        self.faults_raised = result.faults_raised
        self.migrated_pages = result.migrated_pages
        self.events_processed = result.events_processed
        self.flight.record(
            "run_finished", result.exec_cycles, batches=len(self.batches)
        )

    def failure_dump(self, error_type: str, message: str, now: int, **extra) -> dict:
        """Ring snapshot + recent batch features for a failed run."""
        recent = self.batches[-self.flight.capacity :]
        dump = {
            "workload": self.workload,
            "error_type": error_type,
            "message": message,
            "now": now,
            "batches_completed": len(self.batches),
            "open_batch": (
                self.open_batch.record.index
                if self.open_batch is not None
                else None
            ),
            "recent_batches": [feature_row(self, b) for b in recent],
            "events": self.flight.snapshot(),
        }
        dump.update(extra)
        if self.session is not None:
            self.session.failure_dumps.append(dump)
        return dump


class AnalyticsSession:
    """Per-:class:`~repro.obs.Observability` analytics container."""

    def __init__(self, flight_events: int = 64) -> None:
        self.flight_events = flight_events
        self.runs: list[RunAnalytics] = []
        self.failure_dumps: list[dict] = []

    def open_run(self, workload: str, num_sms: int) -> RunAnalytics:
        run = RunAnalytics(
            workload, num_sms, flight_events=self.flight_events, session=self
        )
        self.runs.append(run)
        return run


# ----------------------------------------------------------------------
# Feature export
# ----------------------------------------------------------------------
def feature_row(run: RunAnalytics, batch: BatchObservation) -> dict:
    """One stable feature vector (``FEATURE_FIELDS`` order) per batch."""
    record = batch.record
    return {
        "workload": run.workload,
        "batch": record.index,
        "begin": record.begin_time,
        "end": record.end_time,
        "processing_cycles": record.processing_time,
        "fault_handling_cycles": batch.fault_handling_cycles,
        "preprocess_cycles": record.fault_handling_time,
        "migration_cycles": record.migration_time,
        "entries": record.fault_entries,
        "stale_entries": batch.stale_entries,
        "dup_entries": batch.dup_entries,
        "demand_pages": record.demand_pages,
        "prefetched_pages": record.prefetched_pages,
        "migrated_pages": record.migrated_pages,
        "evicted_pages": record.evicted_pages,
        "frame_wait_cycles": batch.frame_wait_cycles,
        "eviction_busy_cycles": batch.eviction_busy_cycles,
        "eviction_window_cycles": batch.eviction_window_cycles,
        "eviction_occupancy": round(batch.eviction_occupancy, 6),
        "buffered_entries": batch.buffered_entries,
        "waiting_pages": batch.waiting_pages,
        "waiting_warps": batch.waiting_warps,
        "pending_frames": batch.pending_frames,
        "h2d_backlog": batch.h2d_backlog,
        "d2h_backlog": batch.d2h_backlog,
        "free_frames": batch.free_frames,
        "capacity": batch.capacity,
        "occupancy_pct": round(batch.occupancy_pct, 3),
        "to_extra_blocks": batch.to_extra_blocks,
        "prefetch_regions": batch.prefetch_regions,
        "overflow_faults": batch.overflow_faults,
        "replayed_entries": batch.replayed_entries,
    }


def feature_rows(run: RunAnalytics) -> list[dict]:
    return [feature_row(run, batch) for batch in run.batches]


def write_features_jsonl(runs, path) -> str:
    """One JSON object per line, one line per batch, runs concatenated."""
    p = pathlib.Path(path)
    with p.open("w") as fh:
        for run in runs:
            for row in feature_rows(run):
                fh.write(json.dumps(row, sort_keys=False) + "\n")
    return str(p)


def write_features_csv(runs, path) -> str:
    p = pathlib.Path(path)
    with p.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FEATURE_FIELDS)
        writer.writeheader()
        for run in runs:
            for row in feature_rows(run):
                writer.writerow(
                    {k: ("" if v is None else v) for k, v in row.items()}
                )
    return str(p)


def write_features(runs, path) -> str:
    """Write the feature rows as CSV when ``path`` ends in ``.csv``,
    else as JSONL."""
    if str(path).endswith(".csv"):
        return write_features_csv(runs, path)
    return write_features_jsonl(runs, path)


def write_flight_dump(dump: dict, path) -> str:
    p = pathlib.Path(path)
    p.write_text(json.dumps(dump, indent=2, default=repr) + "\n")
    return str(p)


# ----------------------------------------------------------------------
# Analysis / bottleneck report
# ----------------------------------------------------------------------
REPORT_SCHEMA_VERSION = 1


def _percentile(values: list, q: float):
    """Nearest-rank percentile over a non-empty sorted copy."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


def _outlier(run: RunAnalytics) -> dict | None:
    """The worst batch by processing time, with a causal explanation."""
    batches = run.batches
    if not batches:
        return None
    processing = [b.record.processing_time for b in batches]
    worst = max(batches, key=lambda b: b.record.processing_time)
    record = worst.record
    median = _percentile(processing, 50)
    p99 = _percentile(processing, 99)
    proc = record.processing_time or 1
    if record.evicted_pages and worst.frame_wait_cycles >= 0.25 * proc:
        cause = (
            "eviction serialized against H2D "
            f"(frame waits {worst.frame_wait_cycles / proc:.0%} of the batch)"
        )
    elif record.fault_handling_time > record.migration_time:
        cause = (
            "fault-handling preprocess dominated "
            f"({record.fault_entries} entries over {record.demand_pages} pages)"
        )
    elif record.evicted_pages and worst.eviction_occupancy < 0.5:
        cause = (
            "D2H eviction pipeline under-occupied "
            f"({worst.eviction_occupancy:.0%} busy)"
        )
    else:
        cause = (
            "H2D migration streaming bound "
            f"({record.migrated_pages} pages in one window)"
        )
    return {
        "batch": record.index,
        "processing_cycles": record.processing_time,
        "median_processing_cycles": median,
        "p99_processing_cycles": p99,
        "ratio_to_median": round(record.processing_time / max(1, median), 3),
        "cause": cause,
    }


def analyze_run(run: RunAnalytics, system: str | None = None) -> dict:
    """Digest one run's analytics into a JSON-ready cell record."""
    totals = run.attr.totals()
    total = sum(totals.values())
    share = {
        bucket: (totals[bucket] / total if total else 0.0) for bucket in BUCKETS
    }
    dominant = max(BUCKETS, key=lambda bucket: totals[bucket])
    stall_sum = (
        totals["fault_latency"] + totals["eviction_wait"] + totals["pcie_queue"]
    )
    batches = run.batches
    phases = {
        "preprocess_cycles": sum(b.record.fault_handling_time for b in batches),
        "migration_cycles": sum(b.record.migration_time for b in batches),
        "frame_wait_cycles": sum(b.frame_wait_cycles for b in batches),
        "eviction_busy_cycles": sum(b.eviction_busy_cycles for b in batches),
        "replayed_entries": sum(b.replayed_entries for b in batches),
    }
    return {
        "workload": run.workload,
        "system": system,
        "batches": len(batches),
        "exec_cycles": run.exec_cycles,
        "warp_stall_cycles": run.warp_stall_cycles,
        "attributed_cycles": total,
        "attribution_cycles": totals,
        "attribution_share": {k: round(v, 6) for k, v in share.items()},
        "dominant_cause": dominant,
        "dominant_share": round(share[dominant], 6),
        "stall_identity_ok": (
            run.warp_stall_cycles is None
            or stall_sum == run.warp_stall_cycles == run.stall_total
        ),
        "per_sm": run.attr.per_sm_rows(),
        "phases": phases,
        "outlier": _outlier(run),
    }


def build_report(cells: list[dict]) -> dict:
    """Wrap analyzed cells in the versioned report envelope."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "generator": "repro-analyze",
        "cells": cells,
    }


def render_analysis(report: dict) -> str:
    """Human-readable bottleneck report (text twin of the JSON)."""
    lines = ["batch analytics", "==============="]
    cells = report.get("cells", [])
    if not cells:
        lines.append("  (no analyzed runs)")
        return "\n".join(lines)
    for cell in cells:
        name = cell["workload"]
        if cell.get("system"):
            name = f"{cell['system']}/{name}"
        exec_cycles = cell.get("exec_cycles")
        cycles = f"{exec_cycles:,} cycles" if exec_cycles else "incomplete run"
        lines.append(
            f"{name}: {cell['batches']} batches, {cycles} — "
            f"{cell['dominant_share']:.1%} {cell['dominant_cause']}-bound"
        )
        share = cell["attribution_share"]
        lines.append(
            "  attribution: "
            + ", ".join(f"{bucket} {share[bucket]:.1%}" for bucket in BUCKETS)
        )
        if not cell.get("stall_identity_ok", True):
            lines.append("  WARNING: stall attribution does not tile warp stalls")
        outlier = cell.get("outlier")
        if outlier is not None:
            lines.append(
                f"  p99 outlier: batch {outlier['batch']} — "
                f"{outlier['processing_cycles']:,} cycles "
                f"({outlier['ratio_to_median']:.1f}x median) — "
                f"{outlier['cause']}"
            )
    return "\n".join(lines)


#: Required cell keys and their types (None-able keys listed separately).
_CELL_SCHEMA = {
    "workload": str,
    "batches": int,
    "attributed_cycles": int,
    "attribution_cycles": dict,
    "attribution_share": dict,
    "dominant_cause": str,
    "dominant_share": (int, float),
    "stall_identity_ok": bool,
    "per_sm": list,
    "phases": dict,
}


def validate_report(report: dict) -> bool:
    """Structural validation of an analysis report (no jsonschema dep).

    Raises :class:`~repro.errors.ConfigError` naming the first problem;
    returns True when the report conforms.  CI runs this against the
    artifact ``repro-analyze --json`` produced.
    """

    def fail(msg: str, **ctx):
        raise ConfigError(f"invalid analytics report: {msg}", **ctx)

    if not isinstance(report, dict):
        fail("top level must be an object")
    if report.get("schema") != REPORT_SCHEMA_VERSION:
        fail("unknown schema version", schema=report.get("schema"))
    cells = report.get("cells")
    if not isinstance(cells, list):
        fail("'cells' must be a list")
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            fail("cell is not an object", cell=i)
        for key, types in _CELL_SCHEMA.items():
            if key not in cell:
                fail(f"cell missing key {key!r}", cell=i)
            if not isinstance(cell[key], types):
                fail(f"cell key {key!r} has wrong type", cell=i)
        for bucket_map in (cell["attribution_cycles"], cell["attribution_share"]):
            if set(bucket_map) != set(BUCKETS):
                fail("attribution buckets mismatch", cell=i)
        if cell["dominant_cause"] not in BUCKETS:
            fail("dominant_cause is not a bucket", cell=i)
        share_sum = sum(cell["attribution_share"].values())
        if cell["attributed_cycles"] and not 0.999 <= share_sum <= 1.001:
            fail("attribution shares do not sum to 1", cell=i, sum=share_sum)
        if sum(cell["attribution_cycles"].values()) != cell["attributed_cycles"]:
            fail("attribution cycles do not sum to total", cell=i)
        outlier = cell.get("outlier")
        if outlier is not None:
            for key in ("batch", "processing_cycles", "cause"):
                if key not in outlier:
                    fail(f"outlier missing key {key!r}", cell=i)
    return True


__all__ = [
    "BUCKETS",
    "FEATURE_FIELDS",
    "REPORT_SCHEMA_VERSION",
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
    "write_features_jsonl",
    "write_features_csv",
    "write_flight_dump",
]
