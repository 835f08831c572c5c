"""Checkpoint/restore correctness: bit-identical resume + failure paths.

The contract under test (see ``docs/robustness.md``): restoring a
batch-boundary checkpoint and running to completion produces the *same*
``SimulationResult`` — every scalar, every batch record, every extra —
as the uninterrupted run, on both warp models and under chaos
injection.  The property test lets Hypothesis pick the boundary; the
negative tests cover truncated files, version skew, fingerprint skew,
bad magic, and the quarantine policy.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_workload, systems
from repro.chaos.config import parse_chaos_spec
from repro.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    SimCheckpoint,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
    try_load,
)
from repro.errors import CheckpointError, SimulationError
from tests.test_equivalence_golden import MODELS

#: Every perturbation injector at once (``fail-batch`` is excluded: it
#: exists to abort runs deliberately, so it has nothing to resume).
CHAOS_SPEC = (
    "fault-latency:prob=0.2,mult=2,add=500;"
    "dma-stall:prob=0.1;"
    "drop-fault:prob=0.05;"
    "dup-fault:prob=0.05;"
    "evict-contend:prob=0.1,mult=2"
)


def _build(model: str, chaos: bool):
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.TO_UE.configure(workload, ratio=0.5)
    if chaos:
        config = replace(config, chaos=parse_chaos_spec(CHAOS_SPEC, seed=11))
    return MODELS[model](workload, config)


#: (model, chaos) -> (reference result, list of per-batch checkpoints).
#: Built lazily so each cell simulates exactly twice across the module.
_CORPUS: dict = {}


def _corpus(model: str, chaos: bool):
    key = (model, chaos)
    if key not in _CORPUS:
        reference = _build(model, chaos).run()
        sim = _build(model, chaos)
        snaps = []
        sim.engine.checkpoint_hook = lambda: snaps.append(sim.snapshot())
        checkpointed = sim.run()
        assert checkpointed == reference, (
            "enabling checkpoints changed the simulation"
        )
        assert snaps, "no batch-boundary checkpoints captured"
        _CORPUS[key] = (reference, snaps)
    return _CORPUS[key]


# ----------------------------------------------------------------------
# Bit-identical restore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("model", list(MODELS))
def test_mid_run_restore_is_bit_identical(model: str, chaos: bool):
    reference, snaps = _corpus(model, chaos)
    middle = snaps[len(snaps) // 2]
    resumed = middle.restore().resume()
    assert resumed == reference


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(choice=st.integers(min_value=0))
def test_property_any_boundary_restores_identically(choice: int):
    """Hypothesis picks the batch boundary (including the chaos corpus):
    restore + resume from *any* checkpoint must reproduce the reference
    bits — chaos RNG streams, warp state, and queues all included."""
    reference, snaps = _corpus("soa", chaos=True)
    checkpoint = snaps[choice % len(snaps)]
    resumed = checkpoint.restore().resume()
    assert resumed == reference


def test_restored_sim_reports_restored_lifecycle():
    _, snaps = _corpus("soa", chaos=False)
    sim = snaps[len(snaps) // 2].restore()
    state = sim.state_snapshot()
    assert state["lifecycle"] in ("idle", "interrupt", "preprocess", "migrate")
    assert state["run_loop"]["state"] == "idle"  # detached for restart
    with pytest.raises(SimulationError, match="single-use"):
        sim.run()  # a restored sim resumes; it does not restart


def test_resume_requires_restored_instance():
    sim = _build("soa", chaos=False)
    with pytest.raises(SimulationError, match="checkpoint-restored"):
        sim.resume()


# ----------------------------------------------------------------------
# Disk round trip + enable_checkpoints
# ----------------------------------------------------------------------
def test_disk_round_trip(tmp_path):
    reference, _ = _corpus("soa", chaos=False)
    sim = _build("soa", chaos=False)
    sim.enable_checkpoints(tmp_path, every=4)
    result = sim.run()
    assert result == reference
    assert sim.checkpoint_writes > 0
    assert sim.checkpoint_write_seconds >= 0.0
    assert sim.last_checkpoint_path is not None
    resumed = restore_checkpoint(sim.last_checkpoint_path).resume()
    assert resumed == reference


def test_checkpoint_meta_describes_run(tmp_path):
    sim = _build("soa", chaos=False)
    path = save_checkpoint(sim, tmp_path / "pre.ckpt")
    checkpoint = load_checkpoint(path)
    meta = checkpoint.meta
    assert meta["magic"] == MAGIC
    assert meta["schema"] == SCHEMA_VERSION
    assert meta["workload"] == "KCORE"
    assert meta["engine_now"] == 0
    assert "batches" in meta and "fingerprint" in meta
    assert "KCORE" in repr(checkpoint)


def test_enable_checkpoints_rejects_bad_interval(tmp_path):
    sim = _build("soa", chaos=False)
    with pytest.raises(Exception, match="positive"):
        sim.enable_checkpoints(tmp_path, every=0)


def test_capture_reports_unpicklable_state():
    sim = _build("soa", chaos=False)
    sim.not_picklable = lambda: None
    with pytest.raises(CheckpointError, match="not picklable"):
        SimCheckpoint.capture(sim)


# ----------------------------------------------------------------------
# Negative paths: truncation, skew, quarantine
# ----------------------------------------------------------------------
@pytest.fixture
def checkpoint_file(tmp_path):
    sim = _build("soa", chaos=False)
    return save_checkpoint(sim, tmp_path / "cell.ckpt")


def test_truncated_file_is_quarantined(checkpoint_file):
    blob = checkpoint_file.read_bytes()
    checkpoint_file.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="quarantined"):
        load_checkpoint(checkpoint_file)
    assert not checkpoint_file.exists()
    assert checkpoint_file.with_name(
        checkpoint_file.name + ".corrupt"
    ).exists()


def test_garbage_file_is_quarantined(checkpoint_file):
    checkpoint_file.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError, match="quarantined"):
        load_checkpoint(checkpoint_file)
    assert not checkpoint_file.exists()


def test_bad_magic_is_quarantined(checkpoint_file):
    envelope = {"meta": {"magic": "other-tool"}, "payload": b""}
    checkpoint_file.write_bytes(pickle.dumps(envelope))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(checkpoint_file)
    assert not checkpoint_file.exists()


def _reskew(path, **meta_overrides):
    envelope = pickle.loads(path.read_bytes())
    envelope["meta"].update(meta_overrides)
    path.write_bytes(pickle.dumps(envelope))


def test_schema_skew_errors_without_quarantine(checkpoint_file):
    _reskew(checkpoint_file, schema=SCHEMA_VERSION + 1)
    with pytest.raises(CheckpointError, match="schema version"):
        load_checkpoint(checkpoint_file)
    # The file is intact — a matching reader may still want it.
    assert checkpoint_file.exists()
    assert not checkpoint_file.with_name(
        checkpoint_file.name + ".corrupt"
    ).exists()


def test_fingerprint_skew_errors_without_quarantine(checkpoint_file):
    _reskew(checkpoint_file, fingerprint="0" * 64)
    with pytest.raises(CheckpointError, match="different source tree"):
        load_checkpoint(checkpoint_file)
    assert checkpoint_file.exists()
    # ... and can be loaded anyway when the caller opts out.
    assert load_checkpoint(checkpoint_file, check_fingerprint=False)


def test_try_load_degrades_to_none_with_warning(checkpoint_file):
    _reskew(checkpoint_file, schema=SCHEMA_VERSION + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert try_load(checkpoint_file) is None
    assert any("unusable checkpoint" in str(w.message) for w in caught)


def test_try_load_missing_file(tmp_path):
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("ignore")
        assert try_load(tmp_path / "absent.ckpt") is None


def test_load_unreadable_path_raises(tmp_path):
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(tmp_path / "absent.ckpt")
