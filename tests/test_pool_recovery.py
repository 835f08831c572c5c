"""Hard-kill recovery: a SIGKILLed worker's cell resumes bit-identically.

The satellite contract for the supervised pool, exercised end to end
with *real* subprocesses (no mocks):

* ``kill -9`` lands on a live worker mid-cell (sent by the test, from
  outside the pool, once the cell's first checkpoint is on disk); the
  supervisor notices the death, restarts the slot, and resumes the cell
  from its last checkpoint in the fresh worker.  The final result is
  bit-identical to an uninterrupted golden run.
* The ``worker-hang`` injector forces the full escalation chain
  (missed heartbeats → SIGTERM, blocked → SIGKILL) and still converges.
* ``worker-slow`` stretches checkpoint boundaries without changing a
  single output bit.
* After any of it: zero orphaned checkpoint files, SIGKILLed workers
  included.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import systems
from repro.chaos import parse_chaos_spec
from repro.experiments import common
from repro.pool import PoolConfig, SupervisedPool
from repro.simulator import SimulationResult


@pytest.fixture()
def harness(tmp_path):
    with common.run_policy(
        common.RunPolicy(cache_dir=tmp_path / "cache", cache_enabled=False)
    ):
        yield tmp_path


def _spec(**kwargs):
    return common.RunSpec(
        "KCORE", preset=systems.BASELINE, scale="tiny", **kwargs
    ).resolved()


def _fields(result):
    return (
        result.workload,
        result.exec_cycles,
        result.events_processed,
        result.faults_raised,
        result.migrated_pages,
        result.prefetched_pages,
        result.evicted_pages,
        result.context_switches,
        result.batch_stats.num_batches,
        result.batch_stats.mean_batch_pages,
    )


def _golden():
    return common._simulate_spec(_spec())


class TestHardKill:
    def test_sigkill_mid_cell_resumes_bit_identical(self, harness):
        """The test itself SIGKILLs the worker subprocess mid-cell."""
        golden = _golden()
        ckpt = harness / "ckpt"
        # worker-slow stretches every batch boundary so the external
        # killer has a generous window between checkpoint writes.
        slow = parse_chaos_spec("worker-slow:prob=1,delay=0.03", seed=1)
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            term_grace=0.2,
            backoff_base=0.01,
            breaker_threshold=100,
        )
        pool = SupervisedPool(config)
        killed = {"pid": None}

        def assassin():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                # Wait for proof the cell is mid-flight: its first
                # checkpoint has landed on disk.
                if any(ckpt.glob("*.ckpt")):
                    slot = pool._slots[0]
                    worker = slot.worker
                    if worker is not None and worker.process.pid:
                        killed["pid"] = worker.process.pid
                        os.kill(worker.process.pid, signal.SIGKILL)
                        return
                time.sleep(0.002)

        with pool:
            thread = threading.Thread(target=assassin, daemon=True)
            thread.start()
            (result,) = pool.run(
                [_spec(checkpoint_dir=str(ckpt), pool_chaos=slow)]
            )
            thread.join(timeout=30)

        assert killed["pid"] is not None, "the assassin never fired"
        assert isinstance(result, SimulationResult)
        assert _fields(result) == _fields(golden), (
            "resumed result diverged from the golden run"
        )
        stats = pool.stats()
        assert stats["crashes"] >= 1, "the SIGKILL must register as a crash"
        assert stats["resumes"] >= 1, "the cell must resume, not restart"
        assert stats["restarts"] >= 1, "the slot must respawn"
        assert not list(ckpt.glob("*")), (
            f"orphaned checkpoint files: {list(ckpt.glob('*'))}"
        )

    def test_chaos_kill_storm_converges(self, harness):
        """Deterministic kill chaos (p<1) always converges bit-identically."""
        golden = _golden()
        ckpt = harness / "storm"
        chaos = parse_chaos_spec("worker-kill:prob=0.6,after=1", seed=11)
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            term_grace=0.2,
            backoff_base=0.01,
            breaker_threshold=100,
        )
        with SupervisedPool(config) as pool:
            (result,) = pool.run(
                [_spec(checkpoint_dir=str(ckpt), pool_chaos=chaos)]
            )
        assert _fields(result) == _fields(golden)
        assert pool.stats()["crashes"] >= 1
        assert not list(ckpt.glob("*"))


class TestEscalation:
    def test_hang_forces_sigkill_escalation(self, harness):
        golden = _golden()
        ckpt = harness / "hang"
        chaos = parse_chaos_spec("worker-hang:prob=0.8,after=3", seed=3)
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            miss_budget=4.0,
            term_grace=0.2,
            backoff_base=0.01,
            breaker_threshold=100,
        )
        with SupervisedPool(config) as pool:
            (result,) = pool.run(
                [_spec(checkpoint_dir=str(ckpt), pool_chaos=chaos)]
            )
        assert _fields(result) == _fields(golden)
        stats = pool.stats()
        assert stats["heartbeat_misses"] >= 1, "hang must be seen as silence"
        assert stats["sigterms"] >= 1 and stats["sigkills"] >= 1, (
            "a hung worker blocks SIGTERM; only SIGKILL removes it"
        )
        assert not list(ckpt.glob("*"))

    def test_deadline_kills_wedged_worker(self, harness):
        golden = _golden()
        ckpt = harness / "deadline"
        # Hang with heartbeats *still flowing* would defeat heartbeat
        # supervision; the hard per-cell deadline is the backstop.  The
        # hang injector silences heartbeats too, so to isolate the
        # deadline path we disable heartbeat supervision entirely.
        chaos = parse_chaos_spec("worker-hang:prob=0.9,after=2", seed=6)
        config = PoolConfig(
            workers=1,
            heartbeat=None,
            cell_deadline=1.0,
            term_grace=0.1,
            backoff_base=0.01,
            breaker_threshold=100,
        )
        with SupervisedPool(config) as pool:
            (result,) = pool.run(
                [_spec(checkpoint_dir=str(ckpt), pool_chaos=chaos)]
            )
        assert _fields(result) == _fields(golden)
        assert pool.stats()["deadline_kills"] >= 1
        assert not list(ckpt.glob("*"))


class TestSlow:
    def test_worker_slow_changes_no_bits(self, harness):
        golden = _golden()
        chaos = parse_chaos_spec("worker-slow:prob=1,delay=0.01", seed=2)
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            backoff_base=0.01,
        )
        with SupervisedPool(config) as pool:
            (result,) = pool.run(
                [_spec(checkpoint_dir=str(harness / "slow"), pool_chaos=chaos)]
            )
        assert _fields(result) == _fields(golden)
        assert pool.stats()["crashes"] == 0

    def test_slow_heartbeats_keep_worker_alive(self, harness):
        """A slow-but-alive worker must never be escalated: heartbeats
        flow through the stretched checkpoints, so tight miss budgets
        plus worker-slow stay crash-free."""
        chaos = parse_chaos_spec("worker-slow:prob=1,delay=0.05", seed=4)
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            miss_budget=8.0,  # 0.4s of silence = hung; delays are 50ms
            term_grace=0.2,
            backoff_base=0.01,
        )
        with SupervisedPool(config) as pool:
            (result,) = pool.run([_spec(pool_chaos=chaos)])
        assert isinstance(result, SimulationResult)
        assert pool.stats()["heartbeat_misses"] == 0
        assert pool.stats()["sigkills"] == 0


class TestRunCellsKillIntegration:
    def test_sweep_under_kill_chaos_matches_golden(self, harness):
        """A small sweep through ``run_cells`` (the runner's entry point)
        with worker-kill chaos routed via the ordinary ``chaos=`` field
        completes bit-identical to the chaos-free golden run."""
        cells = [
            common.RunSpec(w, preset=p, scale="tiny")
            for w in ("KCORE", "PR")
            for p in (systems.BASELINE, systems.TO)
        ]
        golden = common.run_cells(cells, use_cache=False)

        chaos = parse_chaos_spec("worker-kill:prob=0.5,after=1", seed=21)
        ckpt = harness / "sweep"
        chaotic = [
            common.replace(c, chaos=chaos, checkpoint_dir=str(ckpt))
            for c in cells
        ]
        # Default heartbeat cadence (kill recovery detects EOF, not
        # silence) and a high breaker threshold: on a loaded machine a
        # tight miss budget can spuriously escalate slow-but-alive
        # workers, and this test pins bit-identity, not the breaker.
        with common.run_policy(jobs=2, breaker_threshold=100):
            out = common.run_cells(chaotic, use_cache=False)
        assert [_fields(r) for r in out] == [_fields(r) for r in golden]
        assert not list(ckpt.glob("*")), "chaotic sweep left orphans"
