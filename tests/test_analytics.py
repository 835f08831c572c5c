"""Batch-level analytics: stall attribution, feature export, flight data.

Locks the three contracts the analytics layer ships with:

* **Attribution identity** — on every system preset, the three stall
  buckets (``fault_latency + eviction_wait + pcie_queue``) sum exactly to
  the simulator's ``warp_stall_cycles``, and the full bucket breakdown
  equals the one the object warp model recorded into the golden file
  (``attribution_by_system``).
* **Feature determinism** — the per-batch feature vectors for a pinned
  cell reproduce the golden file field-for-field (regenerate with
  ``PYTHONPATH=src python tests/test_analytics.py --regenerate`` only
  when a PR deliberately changes simulated behaviour).
* **Flight recorder** — a chaos-induced failure surfaces a dump with the
  recent batch records and engine events attached to the exception.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.chaos import parse_chaos_spec
from repro.errors import ConfigError, InjectionError
from repro.obs.analytics import BUCKETS, FEATURE_FIELDS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analytics_features.json"

#: The pinned cell for golden feature determinism.
GOLDEN_CELL = ("TO+UE", "BFS-TTC")


def run_with_analytics(
    system: str,
    workload: str = "BFS-TTC",
    chaos: str | None = None,
    flight_events: int = 64,
):
    """One tiny-scale run with analytics on; returns (result, RunAnalytics)."""
    wl = build_workload(workload, scale="tiny", seed=0)
    kwargs = {"ratio": 0.5}
    if chaos is not None:
        kwargs["chaos"] = parse_chaos_spec(chaos, seed=0)
    config = systems.by_name(system).configure(wl, **kwargs)
    session = obs.Observability(
        "light", analytics=True, flight_events=flight_events
    )
    sim = GpuUvmSimulator(wl, config, obs=session)
    result = sim.run()
    return result, session.analytics.runs[-1]


# ----------------------------------------------------------------------
# Attribution identity, every preset, against the recorded breakdown
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "system", [preset.name for preset in systems.ALL_SYSTEMS]
)
def test_stall_attribution_identity_and_backend_equivalence(system):
    result, run = run_with_analytics(system)
    totals = run.attr.totals()
    stall_sum = (
        totals["fault_latency"]
        + totals["eviction_wait"]
        + totals["pcie_queue"]
    )
    # The locked identity: the three stall buckets tile the warp stalls
    # exactly, and the independent per-wake accumulator agrees.
    assert stall_sum == result.warp_stall_cycles == run.stall_total
    assert all(totals[bucket] >= 0 for bucket in BUCKETS)
    # Per-SM rows re-sum to the totals (no cycles lost in the rollup).
    for bucket in BUCKETS:
        assert sum(getattr(run.attr, bucket)) == totals[bucket]
    # The breakdown the object warp model recorded, bucket for bucket.
    recorded = json.loads(GOLDEN.read_text())["attribution_by_system"]
    assert totals == recorded[system]


def test_batches_and_analysis_consistent():
    result, run = run_with_analytics("TO+UE")
    records = result.batch_stats.records
    assert len(run.batches) == len(records)
    assert run.open_batch is None
    for i, batch in enumerate(run.batches):
        # One ledger: analytics extends the runtime's record, never copies.
        assert batch.record is records[i]
    for record in records:
        assert record.end_time >= record.begin_time
        assert record.fault_handling_time >= 0
        assert record.migration_time >= 0
        assert record.migrated_pages >= record.demand_pages
        assert record.fault_entries >= record.demand_pages
    cell = obs.analyze_run(run, system="TO+UE")
    assert cell["stall_identity_ok"]
    assert cell["dominant_cause"] in BUCKETS
    assert sum(cell["attribution_cycles"].values()) == cell["attributed_cycles"]
    assert cell["outlier"] is not None and "cause" in cell["outlier"]


# ----------------------------------------------------------------------
# Golden feature determinism
# ----------------------------------------------------------------------
def golden_payload() -> dict:
    system, workload = GOLDEN_CELL
    result, run = run_with_analytics(system, workload)
    rows = obs.feature_rows(run)
    return {
        "system": system,
        "workload": workload,
        "warp_stall_cycles": result.warp_stall_cycles,
        "attribution": run.attr.totals(),
        "features": rows,
    }


def test_feature_rows_match_golden():
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with "
        "PYTHONPATH=src python tests/test_analytics.py --regenerate"
    )
    expected = json.loads(GOLDEN.read_text())
    actual = golden_payload()
    assert actual["attribution"] == expected["attribution"]
    assert actual["warp_stall_cycles"] == expected["warp_stall_cycles"]
    assert len(actual["features"]) == len(expected["features"])
    for got, want in zip(actual["features"], expected["features"]):
        assert got == want
    # Column order is the stable interface for downstream consumers.
    for row in actual["features"]:
        assert tuple(row) == FEATURE_FIELDS


def test_feature_export_roundtrip(tmp_path):
    _, run = run_with_analytics("TO+UE")
    jsonl = obs.write_features_jsonl([run], tmp_path / "features.jsonl")
    lines = pathlib.Path(jsonl).read_text().splitlines()
    assert len(lines) == len(run.batches)
    assert tuple(json.loads(lines[0])) == FEATURE_FIELDS
    csv_path = obs.write_features_csv([run], tmp_path / "features.csv")
    header = pathlib.Path(csv_path).read_text().splitlines()[0]
    assert header == ",".join(FEATURE_FIELDS)


# ----------------------------------------------------------------------
# Flight recorder on chaos-induced failure
# ----------------------------------------------------------------------
def test_flight_recorder_attached_on_chaos_failure():
    with pytest.raises(InjectionError) as excinfo:
        run_with_analytics(
            "TO+UE", chaos="fail-batch:batch=2", flight_events=16
        )
    dump = getattr(excinfo.value, "flight_recorder", None)
    assert dump is not None
    assert dump["error_type"] == "InjectionError"
    assert dump["batches_completed"] == 2
    assert 0 < len(dump["recent_batches"]) <= 16
    assert tuple(dump["recent_batches"][0]) == FEATURE_FIELDS
    kinds = {event["kind"] for event in dump["events"]}
    assert "batch_begin" in kinds and "batch_end" in kinds
    # The dump survives pickling (worker-process boundary).
    import pickle

    revived = pickle.loads(pickle.dumps(excinfo.value))
    assert revived.flight_recorder == dump


def test_flight_recorder_ring_is_bounded():
    _, run = run_with_analytics("TO+UE", flight_events=8)
    assert len(run.flight) <= 8
    assert run.flight.snapshot()[-1]["kind"] == "run_finished"


# ----------------------------------------------------------------------
# Report build / validate / render
# ----------------------------------------------------------------------
def test_report_validates_and_renders():
    _, run = run_with_analytics("BASELINE")
    report = obs.build_report([obs.analyze_run(run, system="BASELINE")])
    assert obs.validate_report(report)
    text = obs.render_analysis(report)
    assert "BASELINE/BFS-TTC" in text
    assert "-bound" in text
    assert "p99 outlier" in text

    broken = json.loads(json.dumps(report))
    broken["cells"][0]["attribution_cycles"]["compute"] += 1
    with pytest.raises(ConfigError):
        obs.validate_report(broken)
    with pytest.raises(ConfigError):
        obs.validate_report({"schema": 999, "cells": []})


def test_analyze_cli(tmp_path, capsys):
    from repro.analyze import main

    report_path = tmp_path / "analysis.json"
    features_path = tmp_path / "features.jsonl"
    rc = main(
        [
            "BASELINE:BFS-TTC",
            "--ratio",
            "0.5",
            "--json",
            str(report_path),
            "--features",
            str(features_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "batch analytics" in out
    report = json.loads(report_path.read_text())
    assert report["cells"][0]["stall_identity_ok"]
    assert features_path.read_text().count("\n") == report["cells"][0]["batches"]

    assert main(["--validate", str(report_path)]) == 0
    report_path.write_text('{"schema": 1, "cells": [{}]}')
    assert main(["--validate", str(report_path)]) == 1
    assert main(["NOT_A_SYSTEM:BFS-TTC"]) == 1


# ----------------------------------------------------------------------
# Satellite regressions: report label ordering, profiler top-N
# ----------------------------------------------------------------------
def test_metric_table_orders_numeric_labels():
    from repro.obs.metrics import MetricRegistry
    from repro.obs.report import _metric_table

    registry = MetricRegistry()
    for sm in (0, 1, 2, 10, 11):
        registry.histogram("sm.stall", sm=sm).record(sm)
    lines = [line for line in _metric_table(registry) if "sm.stall" in line]
    order = [line.split()[0] for line in lines]
    assert order == [f"sm.stall{{sm={i}}}" for i in (0, 1, 2, 10, 11)]


def test_profiler_top_n_folds_tail():
    from repro.obs.profile import ComponentProfiler

    prof = ComponentProfiler()
    prof.self_ns.update({"a": 500, "b": 300, "c": 150, "d": 50})
    prof.calls.update({"a": 5, "b": 3, "c": 2, "d": 1})
    prof.wall_ns = 1200
    rows = prof.attribution(top=2)
    assert list(rows) == ["a", "b", "(below top-2)", "(engine/other)"]
    assert rows["(below top-2)"]["seconds"] == pytest.approx(200 / 1e9)
    assert rows["(below top-2)"]["calls"] == 3
    total = sum(row["seconds"] for row in rows.values())
    assert total == pytest.approx(prof.wall_ns / 1e9)
    assert "below top-2" in prof.render(top=2)


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        payload = golden_payload()
        payload["attribution_by_system"] = {
            preset.name: run_with_analytics(preset.name)[1].attr.totals()
            for preset in systems.ALL_SYSTEMS
        }
        GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit(pytest.main([__file__, "-v"]))
