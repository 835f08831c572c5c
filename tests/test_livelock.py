"""Forward progress: a cell whose batches keep completing while no warp
op retires fails within seconds with a structured ``livelock`` error,
instead of running until a wall budget or a cell timeout ends it."""

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.errors import SimulationError, SimulationStalledError
from repro.experiments import common
from repro.experiments.policy import RunPolicy, run_policy
from repro.simulator import LIVELOCK_BATCHES


def simulator(preset, workload, ratio):
    wl = build_workload(workload, scale="tiny", seed=0)
    return GpuUvmSimulator(wl, preset.configure(wl, ratio=ratio))


def test_livelocked_cell_fails_with_livelock_kind():
    # At 40% of its footprint, PR's live warps need more pages than fit:
    # each batch evicts what the last one brought in, and after 126 ops
    # nothing retires again.
    sim = simulator(systems.BASELINE, "PR", 0.4)
    with pytest.raises(SimulationError) as excinfo:
        sim.run()
    error = excinfo.value
    # Deterministic, so not a stall: no checkpoint-and-resume retry.
    assert not isinstance(error, SimulationStalledError)
    context = error.context
    assert context["kind"] == "livelock"
    assert context["idle_batches"] == LIVELOCK_BATCHES
    assert context["ops_retired"] == 126
    assert context["kernel"] == "1/2"
    assert "livelock" in str(error)


def test_near_cliff_cell_still_finishes_unchanged():
    # BFS-TTC at the same ratio thrashes (almost every eviction is a
    # premature refault) but keeps retiring ops; its result is the one
    # recorded before the forward-progress check existed.
    result = simulator(systems.BASELINE, "BFS-TTC", 0.4).run()
    assert result.exec_cycles == 2_917_791
    assert result.batch_stats.num_batches == 541
    assert result.events_processed == 23_900
    assert result.evicted_pages == 4_458
    assert result.faults_raised == 10_758


def test_livelock_fails_the_cell_without_checkpoint_or_retry(tmp_path):
    # A stall with a checkpoint would be retried by resuming it; the
    # livelock is not a stall, so the cell fails on its first attempt and
    # writes nothing (the periodic checkpoint is set too sparse to fire).
    checkpoints = tmp_path / "ckpt"
    with run_policy(
        RunPolicy(cache_dir=tmp_path / "cache"),
        retries=3,
        retry_backoff=0.0,
        checkpoint_dir=str(checkpoints),
        checkpoint_every=100 * LIVELOCK_BATCHES,
        on_error="keep-going",
    ):
        result = common.run_system(systems.BASELINE, "PR", scale="tiny", ratio=0.4)
    assert common.is_failure(result)
    assert result.error_type == "SimulationError"
    assert result.attempts == 1
    assert result.checkpoint_path is None
    assert "kind=livelock" in str(result)
    assert not any(checkpoints.iterdir())
