"""Component profiler: attribution accounting and non-perturbation."""

from __future__ import annotations

import json
import subprocess
import sys
import pathlib

import pytest

from repro import build_workload, systems
from repro.obs import ComponentProfiler, Observability, profile_simulation
from tests.test_equivalence_golden import MODELS

REPO_ROOT = pathlib.Path(__file__).parent.parent


def build_sim(model: str = "soa", obs=None):
    wl = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.BASELINE.configure(wl, ratio=0.5)
    return MODELS[model](wl, config, obs=obs)


@pytest.mark.parametrize("model", list(MODELS))
def test_attribution_accounts_for_hot_components(model):
    sim = build_sim(model)
    prof = ComponentProfiler().attach(sim)
    try:
        result = sim.run()
    finally:
        prof.detach()

    assert result.exec_cycles > 0
    assert prof.wall_ns > 0
    rows = prof.attribution()
    # The issue loop and the fault path must both have fired.
    assert rows["warp.issue"]["calls"] > 0
    assert rows["fault.raise"]["calls"] > 0
    assert rows["batch.preprocess"]["calls"] > 0
    assert rows["page.arrival"]["calls"] > 0
    assert rows["warp.wake"]["calls"] > 0
    # Exclusive attribution: profiled self-times never exceed wall time.
    attributed = sum(r["seconds"] for k, r in rows.items() if r["calls"])
    assert attributed <= prof.wall_ns / 1e9 + 1e-6
    # The remainder row carries whatever the components don't.
    assert "(engine/other)" in rows


def test_object_backend_attributes_translation_separately():
    # On the object model the MMU front-end is a wrapped call per page;
    # the simulator's issue loop inlines the L1 probe and calls the miss
    # path through a pre-bound reference, so translation time lands in
    # warp.issue instead.
    sim = build_sim("object")
    prof = ComponentProfiler().attach(sim)
    try:
        sim.run()
    finally:
        prof.detach()
    assert prof.attribution()["pt.translate"]["calls"] > 0
    _, inlined = profile_simulation(
        build_workload("KCORE", scale="tiny", seed=0),
        systems.BASELINE.configure(
            build_workload("KCORE", scale="tiny", seed=0), ratio=0.5
        ),
    )
    assert "pt.translate" not in inlined.attribution()


def test_profiler_does_not_perturb_results():
    baseline = build_sim().run()
    profiled_sim = build_sim()
    prof = ComponentProfiler().attach(profiled_sim)
    try:
        profiled = profiled_sim.run()
    finally:
        prof.detach()
    assert profiled.exec_cycles == baseline.exec_cycles
    assert profiled.events_processed == baseline.events_processed


def test_detach_restores_methods_and_callbacks():
    sim = build_sim()
    original_wake = sim.runtime.wake_warps
    prof = ComponentProfiler().attach(sim)
    assert sim.runtime.wake_warps is not original_wake
    prof.detach()
    assert sim.runtime.wake_warps is original_wake
    assert "run" not in vars(sim)
    assert "_execute_op" not in vars(sim)
    # Idempotent.
    prof.detach()


def test_double_attach_rejected():
    sim = build_sim()
    prof = ComponentProfiler().attach(sim)
    try:
        with pytest.raises(RuntimeError):
            prof.attach(sim)
    finally:
        prof.detach()


def test_to_metrics_exports_gauges():
    sim = build_sim()
    session = Observability("light")
    prof = ComponentProfiler().attach(sim)
    try:
        sim.run()
    finally:
        prof.detach()
    prof.to_metrics(session.metrics)
    snapshot = session.metrics.snapshot()
    assert any("profile.self_seconds" in key for key in snapshot)


def test_tprof_cli_smoke(tmp_path):
    out = tmp_path / "prof.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "tprof.py"),
            "--system",
            "BASELINE",
            "--workload",
            "KCORE",
            "--json",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "warp.issue" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["attribution"]["warp.issue"]["calls"] > 0
