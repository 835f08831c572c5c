"""The committed layer-ledger A/B (``BENCH_perf.json``) stays re-measurable:
it parses, names only workloads and metrics ``BENCHMARK.json`` declares,
and says which commits, host and toolchain produced it."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = {"base", "head"}
PROVENANCE = {"base_commit", "head_commit", "nproc", "python", "numpy", "seed"}


def _load():
    bench = json.loads((ROOT / "BENCH_perf.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench, declared


def test_bench_perf_carries_provenance():
    bench, _ = _load()
    assert PROVENANCE <= set(bench["provenance"])
    assert bench["provenance"]["base_commit"] != bench["provenance"]["head_commit"]


def test_bench_perf_names_only_declared_workloads_and_metrics():
    bench, declared = _load()
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert bench["workloads"] and set(bench["workloads"]) <= workloads
    for entry in bench["workloads"].values():
        assert "wall_s" in entry["end_to_end"]
        assert set(entry["end_to_end"]) <= end_to_end
        assert set(entry["per_layer"]) <= per_layer
        for sides in entry["per_layer"].values():
            assert set(sides) == SIDES


def test_bench_perf_wall_quartiles_are_ordered():
    bench, _ = _load()
    for entry in bench["workloads"].values():
        for side in entry["end_to_end"]["wall_s"].values():
            assert len(side["runs"]) >= 10
            assert side["q1"] <= side["median"] <= side["q3"]


def _gate():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "ledger_gate", ROOT / "scripts" / "ledger_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_gate_fails_only_when_slower_than_the_bound():
    gate = _gate()
    bench, declared = _load()
    for workload in ("oversub", "adequate"):
        entry = bench["workloads"][workload]
        committed = {m: gate.committed_head(entry, m) for m in gate.GATED}

        def statuses(scale):
            run = {"metrics": {m: {"value": v * scale} for m, v in committed.items()}}
            lines = gate.check(workload, run, bench, declared)
            return {line.split()[0] for line in lines}

        # The bound is 0.25: faster or within it passes, beyond it fails.
        assert statuses(0.5) == statuses(1.2) == {"ok"}
        assert statuses(1.3) == {"FAIL"}
