"""Checkpoints carry simulation state, not the workload trace.

A registry workload pickles by reference to its canonical
``(NAME, scale, seed)`` key and the warp store's trace columns by
reference to that workload's kernel, so a payload is small, its bytes do
not depend on what else the process simulated, and a restore — even in
a fresh process with an empty memo — rebuilds the trace and resumes to
the uninterrupted result.  Hand-built workloads keep pickling by value.
"""

from __future__ import annotations

import functools
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.errors import CheckpointError, SimulationError
from tests.test_simulator import tiny_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _kcore():
    return build_workload("KCORE", scale="tiny", seed=0)


def _snapshots(workload, config=None):
    """Reference result and every batch-boundary checkpoint of one run."""
    if config is None:
        config = systems.TO_UE.configure(workload, ratio=0.5)
    sim = GpuUvmSimulator(workload, config)
    snaps = []
    sim.engine.checkpoint_hook = lambda: snaps.append(sim.snapshot())
    result = sim.run()
    assert snaps, "no batch-boundary checkpoints captured"
    return result, snaps


@functools.lru_cache(maxsize=None)
def _kcore_corpus():
    """The TO+UE KCORE/tiny ratio-0.5 cell: reference and checkpoints."""
    return _snapshots(_kcore())


def _run_other_time_scale(workload) -> None:
    """Simulate ``workload`` at a time scale nothing else uses, which
    adds an entry to every kernel's derived cache."""
    config = systems.UNLIMITED.configure(workload, ratio=1.0)
    GpuUvmSimulator(workload, replace(config, time_scale=0.123)).run()


def test_restored_simulator_shares_the_memo_workload():
    _, snaps = _kcore_corpus()
    restored = snaps[len(snaps) // 2].restore()
    assert restored.workload is build_workload("kcore", "tiny", 0)


# ----------------------------------------------------------------------
# Payload size and bytes
# ----------------------------------------------------------------------
def test_mid_run_payload_leaves_the_trace_out():
    _, snaps = _kcore_corpus()
    assert len(snaps[len(snaps) // 2].payload) < 100_000


@pytest.mark.parametrize("source", ["registry", "hand-built"])
def test_payload_bytes_ignore_process_history(source: str):
    workload = _kcore() if source == "registry" else tiny_workload()
    config = systems.TO_UE.configure(workload, ratio=0.5)
    _, before = _snapshots(workload, config)
    _run_other_time_scale(workload)
    _, after = _snapshots(workload, config)
    assert [s.payload for s in before] == [s.payload for s in after]


# ----------------------------------------------------------------------
# Restores
# ----------------------------------------------------------------------
def test_hand_built_workload_checkpoints_by_value():
    workload = tiny_workload()
    reference, snaps = _snapshots(workload)
    middle = snaps[len(snaps) // 2]
    assert middle.meta["registry_key"] is None
    restored = middle.restore()
    assert restored.workload is not workload
    assert restored.workload.name == workload.name
    assert restored.workload.shape == workload.shape
    assert restored.resume() == reference


def test_fresh_process_restore_rebuilds_the_trace(tmp_path):
    workload = _kcore()
    reference, _ = _kcore_corpus()
    config = systems.TO_UE.configure(workload, ratio=0.5)
    sim = GpuUvmSimulator(workload, config)
    sim.enable_checkpoints(tmp_path, every=4)
    with pytest.raises(SimulationError):
        sim.run(max_events=reference.events_processed // 2)
    checkpoint = pathlib.Path(sim.last_checkpoint_path)
    out = tmp_path / "resumed.pkl"
    script = (
        "import pickle, sys\n"
        "from repro.checkpoint import restore_checkpoint\n"
        "from repro.workloads import registry\n"
        "assert registry.build_workload.cache_info().currsize == 0\n"
        "result = restore_checkpoint(sys.argv[1]).resume()\n"
        "open(sys.argv[2], 'wb').write(pickle.dumps(result))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c", script, str(checkpoint), str(out)],
        check=True,
        env=env,
        cwd=ROOT,
    )
    assert pickle.loads(out.read_bytes()) == reference


# ----------------------------------------------------------------------
# Guard on the rebuilt trace
# ----------------------------------------------------------------------
def _reskew(path, **meta_overrides):
    envelope = pickle.loads(path.read_bytes())
    envelope["meta"].update(meta_overrides)
    path.write_bytes(pickle.dumps(envelope))


@pytest.fixture
def checkpoint_file(tmp_path):
    workload = _kcore()
    sim = GpuUvmSimulator(workload, systems.TO_UE.configure(workload, ratio=0.5))
    return save_checkpoint(sim, tmp_path / "cell.ckpt")


def test_meta_records_registry_key_and_shape(checkpoint_file):
    meta = load_checkpoint(checkpoint_file).meta
    assert meta["registry_key"] == ("KCORE", "tiny", 0)
    assert meta["shape"] == _kcore().shape
    assert len(meta["shape"]) == len(_kcore().kernels)


@pytest.mark.parametrize(
    "overrides",
    [
        {"shape": ((1, 1),)},
        {"registry_key": ("BFS-TTC", "tiny", 0)},
        {"registry_key": ("NOPE", "tiny", 0)},
    ],
    ids=["shape", "other-workload", "unknown-workload"],
)
def test_mismatched_rebuild_errors_without_quarantine(checkpoint_file, overrides):
    _reskew(checkpoint_file, **overrides)
    checkpoint = load_checkpoint(checkpoint_file)
    with pytest.raises(CheckpointError, match="workload"):
        checkpoint.restore()
    assert checkpoint_file.exists()
    assert not checkpoint_file.with_name(checkpoint_file.name + ".corrupt").exists()
