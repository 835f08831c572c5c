"""Supervised worker pool: config, chaos plans, breaker, broken-pool path.

Process-level recovery (real ``kill -9``, hang escalation, bit-identical
resume) lives in ``test_pool_recovery.py``; the pool-backed server in
``test_pool_serve.py``.  This module covers the deterministic plumbing:

* :class:`~repro.pool.PoolConfig` validation, and the rule that a
  cell's pool chaos accepts process-level kinds only.
* Chaos routing: ``worker-*`` kinds split out of a mixed ``--chaos``
  spec before it can touch the cache key, and per-attempt plans are
  deterministic in (seed, key digest, attempt).
* The ``pool-worker`` lifecycle machine: declared transitions only.
* The per-key circuit breaker: repeated crashes quarantine the key as a
  structured :class:`~repro.errors.PoisonCellError` (checkpoint kept as
  ``.ckpt.quarantine`` for triage) and later submissions fail fast.
* ``run_cells`` over a broken pool: surviving results are kept, only
  broken cells are resubmitted to the rebuilt pool, and per-cell retry
  budgets are not burned (the satellite fix for the old uniform
  "everything transient" taxonomy).
* ``MemoryError`` from a cell is a structured failure, never a retry.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import systems
from repro.chaos import (
    PROCESS_KINDS,
    parse_chaos_spec,
    plan_worker_chaos,
    split_process_chaos,
)
from repro.chaos.injectors import ChaosSession
from repro.errors import (
    CellFailure,
    ConfigError,
    IllegalTransition,
    InjectionError,
    PoisonCellError,
    PoolBrokenError,
)
from repro.experiments import common
from repro.lifecycle import WORKER_LIFECYCLE, StateMachine
from repro.pool import PoolConfig, SupervisedPool, sweep_stale_tmp_files
from repro.simulator import SimulationResult

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture()
def harness(tmp_path):
    """Isolated cache + pristine run policy for the test's duration."""
    with common.run_policy(common.RunPolicy(cache_dir=tmp_path / "cache")):
        yield tmp_path


def _spec(workload="KCORE", preset=systems.BASELINE, **kwargs):
    return common.RunSpec(workload, preset=preset, scale="tiny", **kwargs)


FAST_POOL = dict(
    heartbeat=0.05, term_grace=0.2, backoff_base=0.01, spawn_timeout=10.0
)


def _fields(result):
    return (
        result.workload,
        result.exec_cycles,
        result.faults_raised,
        result.migrated_pages,
        result.evicted_pages,
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestPoolConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(workers=0),
            dict(heartbeat=0.0),
            dict(miss_budget=0),
            dict(cell_deadline=-1),
            dict(spawn_timeout=0),
            dict(backoff_base=0.5, backoff_cap=0.1),
            dict(breaker_threshold=0),
            dict(spawn_fail_limit=0),
            dict(term_grace=-1),
            dict(tick=0),
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            PoolConfig(**bad)

    def test_simulation_chaos_kinds_rejected(self):
        sim_chaos = parse_chaos_spec("dma-stall:prob=0.5", seed=1)
        with pytest.raises(ConfigError, match="process-level"):
            _spec(pool_chaos=sim_chaos)

    def test_heartbeat_none_disables_supervision(self):
        config = PoolConfig(heartbeat=None)
        assert config.heartbeat is None


# ----------------------------------------------------------------------
# Chaos routing + plans
# ----------------------------------------------------------------------
class TestProcessChaos:
    def test_split_separates_process_kinds(self):
        config = parse_chaos_spec(
            "worker-kill:prob=0.2;dma-stall:prob=0.1;worker-slow:prob=1,delay=0.01",
            seed=13,
        )
        sim, proc = split_process_chaos(config)
        assert [s.kind for s in sim.injectors] == ["dma-stall"]
        assert sorted(s.kind for s in proc.injectors) == [
            "worker-kill",
            "worker-slow",
        ]
        assert sim.seed == proc.seed == 13

    def test_split_passes_pure_configs_through(self):
        sim_only = parse_chaos_spec("drop-fault:prob=0.1", seed=2)
        sim, proc = split_process_chaos(sim_only)
        assert sim is sim_only and proc is None
        proc_only = parse_chaos_spec("worker-kill:prob=1", seed=2)
        sim, proc = split_process_chaos(proc_only)
        assert sim is None and proc is proc_only

    def test_chaos_session_rejects_process_kinds(self):
        config = parse_chaos_spec("worker-hang:prob=1", seed=0)
        with pytest.raises(InjectionError, match="process-level"):
            ChaosSession(config)

    def test_plans_deterministic_per_attempt(self):
        config = parse_chaos_spec("worker-kill:prob=0.5,after=3", seed=7)
        plans = [plan_worker_chaos(config, "abc123", a) for a in range(16)]
        again = [plan_worker_chaos(config, "abc123", a) for a in range(16)]
        assert plans == again, "same (seed, digest, attempt) must replan equal"
        fired = [p for p in plans if p is not None]
        assert fired and len(fired) < len(plans), (
            "prob=0.5 over 16 attempts should fire sometimes, not always"
        )
        assert all(p == {"kill_at": 3} for p in fired)

    def test_plans_vary_by_digest_and_seed(self):
        config = parse_chaos_spec("worker-kill:prob=0.5", seed=7)
        other_seed = parse_chaos_spec("worker-kill:prob=0.5", seed=8)
        a = [plan_worker_chaos(config, "digest-a", n) is None for n in range(32)]
        b = [plan_worker_chaos(config, "digest-b", n) is None for n in range(32)]
        c = [plan_worker_chaos(other_seed, "digest-a", n) is None for n in range(32)]
        assert a != b or a != c, "streams must decorrelate across keys/seeds"

    def test_resolved_routes_worker_kinds_to_pool_chaos(self):
        mixed = parse_chaos_spec(
            "worker-kill:prob=0.2;fault-latency:prob=0.1", seed=4
        )
        spec = _spec(chaos=mixed).resolved()
        assert [s.kind for s in spec.chaos.injectors] == ["fault-latency"]
        assert [s.kind for s in spec.pool_chaos.injectors] == ["worker-kill"]
        # The memo key must not see process-level chaos: two specs that
        # differ only in pool chaos are the same cell.
        clean = _spec(
            chaos=parse_chaos_spec("fault-latency:prob=0.1", seed=4)
        ).resolved()
        assert common._memo_key(spec) == common._memo_key(clean)

    def test_process_kinds_frozen(self):
        assert PROCESS_KINDS == {"worker-kill", "worker-hang", "worker-slow"}


# ----------------------------------------------------------------------
# Lifecycle machine
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_happy_path(self):
        machine = StateMachine(WORKER_LIFECYCLE)
        assert machine.state == "spawning"
        machine.fire("ready")
        machine.fire("assign")
        machine.fire("complete")
        machine.fire("assign")
        machine.fire("complete")
        machine.fire("drain")
        machine.fire("exit")
        assert machine.state == "dead"

    def test_crash_reachable_from_every_live_state(self):
        for events in ([], ["ready"], ["ready", "assign"], ["drain"]):
            machine = StateMachine(WORKER_LIFECYCLE)
            for event in events:
                machine.fire(event)
            machine.fire("crash")
            assert machine.state == "dead"

    def test_illegal_transition_raises_with_snapshot(self):
        machine = StateMachine(WORKER_LIFECYCLE)
        with pytest.raises(IllegalTransition):
            machine.fire("complete")  # spawning workers hold no task

    def test_dead_is_terminal(self):
        machine = StateMachine(WORKER_LIFECYCLE)
        machine.fire("crash")
        with pytest.raises(IllegalTransition):
            machine.fire("assign")


# ----------------------------------------------------------------------
# Pool basics
# ----------------------------------------------------------------------
class TestSupervisedPool:
    def test_results_ordered_and_identical_to_serial(self, harness):
        specs = [
            _spec(w, p).resolved()
            for w in ("KCORE", "PR")
            for p in (systems.BASELINE, systems.TO)
        ]
        serial = [common._simulate_spec(s) for s in specs]
        with SupervisedPool(PoolConfig(workers=2, **FAST_POOL)) as pool:
            pooled = pool.run(specs)
        assert [_fields(r) for r in pooled] == [_fields(r) for r in serial]
        stats = pool.stats()
        assert stats["completed"] == len(specs)
        assert stats["crashes"] == 0

    def test_worker_exception_returned_not_raised(self, harness):
        bad = _spec(chaos=parse_chaos_spec("fail-batch:batch=0", seed=0))
        with SupervisedPool(PoolConfig(workers=1, **FAST_POOL)) as pool:
            (outcome,) = pool.run([bad.resolved()])
        assert isinstance(outcome, InjectionError)
        assert pool.stats()["failed"] == 1
        assert pool.stats()["crashes"] == 0, "a raising cell is not a crash"

    def test_pool_injects_checkpoint_policy(self, harness, tmp_path):
        ckpt = tmp_path / "pool-ckpt"
        chaos = parse_chaos_spec("worker-kill:prob=1,after=1", seed=3)
        policy = common.RunPolicy(checkpoint_dir=ckpt, chaos=chaos)
        config = PoolConfig(workers=1, breaker_threshold=100, **FAST_POOL)
        golden = common._simulate_spec(_spec().resolved())
        with SupervisedPool(config) as pool:
            (result,) = pool.run([policy.apply(_spec())])
        assert _fields(result) == _fields(golden)
        assert pool.stats()["resumes"] > 0, (
            "a bare spec must pick up the policy's checkpoint directory"
        )
        assert not list(ckpt.glob("*")), "no checkpoint litter on success"

    def test_workers_do_not_trace_into_the_parent_session(
        self, harness, tmp_path
    ):
        """A forked worker must not run its cells on the copies of the
        parent's obs session and cell hook it inherited: the stalled
        cell's checkpoint would carry the session, and restore with it."""
        from repro import obs
        from repro.checkpoint import try_load

        policy = replace(
            common.default_policy(),
            jobs=2,
            cell_timeout=1e-9,
            checkpoint_dir=tmp_path / "ckpt",
            retries=0,
            on_error="keep-going",
        )
        # ~10k events each: past the watchdog's first wall-clock sample.
        specs = [_spec("BFS-TTC", ratio=0.5, seed=seed) for seed in (0, 1)]
        hooked = tmp_path / "hooked"
        common.set_cell_hook(lambda sim: hooked.touch())
        try:
            with obs.session("full"):
                failures = common.run_cells(specs, policy=policy)
        finally:
            common.set_cell_hook(None)
        assert not hooked.exists(), "worker ran the parent's cell hook"
        for failure in failures:
            assert failure.error_type == "SimulationStalledError"
            sim = try_load(failure.checkpoint_path).restore()
            assert sim.obs is None, "worker traced into an inherited session"

    def test_close_is_idempotent_and_run_after_close_raises(self, harness):
        pool = SupervisedPool(PoolConfig(workers=1, **FAST_POOL))
        pool.start()
        pool.close()
        pool.close()
        with pytest.raises(Exception):
            pool.run([_spec().resolved()])


# ----------------------------------------------------------------------
# Circuit breaker / poison cells
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_repeated_crashes_quarantine_the_key(self, harness, tmp_path):
        ckpt = tmp_path / "ckpt"
        chaos = parse_chaos_spec("worker-kill:prob=1,after=1", seed=5)
        config = PoolConfig(workers=1, breaker_threshold=2, **FAST_POOL)
        policy = common.RunPolicy(checkpoint_dir=ckpt, chaos=chaos)
        spec = policy.apply(_spec())
        with SupervisedPool(config) as pool:
            (outcome,) = pool.run([spec])
            assert isinstance(outcome, PoisonCellError)
            assert outcome.crashes == 2
            assert outcome.error_type == "PoisonCellError"
            stats = pool.stats()
            assert stats["poisoned"] == 1
            assert stats["crashes"] == 2
            digest = common._spec_digest(spec)
            assert digest in stats["quarantined_keys"]
            # The last checkpoint survives for triage, renamed out of the
            # resumable namespace.
            quarantined = list(ckpt.glob("*.ckpt.quarantine"))
            assert len(quarantined) == 1
            assert outcome.checkpoint_path == str(quarantined[0])

            # Re-submitting the poisoned key fails fast: no fresh crash.
            (again,) = pool.run([spec])
            assert isinstance(again, PoisonCellError)
            assert pool.stats()["crashes"] == 2

    def test_completion_resets_the_breaker_count(self, harness, tmp_path):
        """A completed run closes the circuit: only *consecutive* crashes
        accumulate, so a hot key on a long-lived pool under sustained
        chaos (one crash per submission, every submission completing) is
        never quarantined."""
        chaos = parse_chaos_spec("worker-kill:prob=0.5,after=1", seed=5)
        policy = common.RunPolicy(
            checkpoint_dir=tmp_path / "ckpt", chaos=chaos
        )
        spec = policy.apply(_spec())
        digest = common._spec_digest(spec)
        # The scenario this seed pins: the first attempt (stream 0) is
        # killed, the retry is spared — every submission crashes exactly
        # once, then completes.
        assert plan_worker_chaos(chaos, digest, 0) == {"kill_at": 1}
        assert plan_worker_chaos(chaos, digest, 1) is None
        config = PoolConfig(workers=1, breaker_threshold=2, **FAST_POOL)
        with SupervisedPool(config) as pool:
            for _ in range(3):
                (outcome,) = pool.run([spec])
                assert isinstance(outcome, SimulationResult)
            stats = pool.stats()
            assert stats["crashes"] == 3, "one induced crash per submission"
            assert stats["poisoned"] == 0
            assert not stats["quarantined_keys"]

    def test_poison_cell_respects_on_error_policy(self, harness, tmp_path):
        chaos = parse_chaos_spec("worker-kill:prob=1,after=1", seed=5)
        config = PoolConfig(workers=1, breaker_threshold=1, **FAST_POOL)
        policy = common.RunPolicy(
            checkpoint_dir=tmp_path / "ckpt", chaos=chaos
        )
        spec = _spec()
        with SupervisedPool(config) as pool:
            with pytest.raises(CellFailure):
                common.run_cells(
                    [spec], use_cache=False, pool=pool, policy=policy
                )
        with SupervisedPool(config) as pool:
            (slot,) = common.run_cells(
                [spec], use_cache=False, pool=pool, policy=policy,
                on_error="keep-going",
            )
            assert isinstance(slot, PoisonCellError)

    def test_poison_cell_pickles_and_serializes(self):
        import pickle

        err = PoisonCellError(
            "cell crashed 5 times",
            crashes=5,
            workload="KCORE",
            system="BASELINE",
            attempts=5,
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.crashes == 5
        assert clone.to_dict()["error_type"] == "PoisonCellError"
        assert isinstance(err, CellFailure)


# ----------------------------------------------------------------------
# Broken pool + taxonomy satellites
# ----------------------------------------------------------------------
class _FakeBrokenPool:
    """A pool whose first ``run`` breaks some cells; healed by rebuild.

    Keyed by memo key so the post-rebuild resubmission (a subset of the
    original specs, in original order) gets the right golden results.
    """

    def __init__(self, specs, good_results, break_indices):
        self.lookup = {
            common._memo_key(s): r for s, r in zip(specs, good_results)
        }
        self.break_indices = set(break_indices)
        self.rebuilds = 0
        self.calls = []

    def run(self, specs, on_done=None):
        self.calls.append(len(specs))
        return [
            PoolBrokenError("no worker could be kept alive")
            if self.rebuilds == 0 and i in self.break_indices
            else self.lookup[common._memo_key(spec)]
            for i, spec in enumerate(specs)
        ]

    def rebuild(self):
        self.rebuilds += 1

    def close(self):
        pass


class TestBrokenPoolPath:
    def test_run_cells_resubmits_only_broken_cells(self, harness):
        specs = [
            _spec(w, p).resolved()
            for w in ("KCORE", "PR")
            for p in (systems.BASELINE, systems.TO)
        ]
        golden = [common._simulate_spec(s) for s in specs]
        fake = _FakeBrokenPool(specs, golden, break_indices=[1, 3])
        results = common.run_cells(specs, use_cache=False, pool=fake)
        assert fake.rebuilds == 1
        assert fake.calls == [4, 2], (
            "only the broken cells ride the rebuilt pool; survivors are kept"
        )
        assert [_fields(r) for r in results] == [_fields(r) for r in golden]

    def test_truly_broken_pool_degrades_to_structured_failure(self, harness):
        """A pool that stays broken after the rebuild must not burn the
        per-cell retry budget: PoolBrokenError is not in the transient
        taxonomy, so each cell degrades to one structured failure."""

        class _Hopeless(_FakeBrokenPool):
            def run(self, specs, on_done=None):
                return [
                    PoolBrokenError("no worker could be kept alive")
                    for _ in specs
                ]

        specs = [_spec()]
        results = common.run_cells(
            specs, use_cache=False, pool=_Hopeless([], [], []),
            on_error="keep-going",
        )
        (failure,) = results
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "PoolBrokenError"
        assert failure.attempts == 1, "pool breakage must not burn retries"

    def test_real_pool_breaks_when_workers_cannot_spawn(
        self, harness, monkeypatch
    ):
        from repro.pool import supervisor as sup

        def _stillborn(conn, worker_id, heartbeat):
            raise SystemExit(1)

        monkeypatch.setattr(sup, "worker_main", _stillborn)
        config = PoolConfig(
            workers=1,
            spawn_fail_limit=2,
            heartbeat=0.05,
            term_grace=0.2,
            spawn_timeout=5.0,
            backoff_base=0.001,
            backoff_cap=0.01,
        )
        with SupervisedPool(config) as pool:
            (outcome,) = pool.run([_spec().resolved()])
        assert isinstance(outcome, PoolBrokenError)
        assert pool.stats()["broken"] is True

    def test_memory_error_is_structured_not_retried(self, harness, monkeypatch):
        calls = {"n": 0}

        def _oom(spec):
            calls["n"] += 1
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(common, "_simulate_spec", _oom)
        (failure,) = common.run_cells(
            [_spec()], use_cache=False, on_error="keep-going"
        )
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "MemoryError"
        assert calls["n"] == 1, "MemoryError must never be retried"

    def test_oserror_still_transient(self, harness, monkeypatch):
        calls = {"n": 0}
        real = common._simulate_spec

        def _flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient infrastructure hiccup")
            return real(spec)

        monkeypatch.setattr(common, "_simulate_spec", _flaky)
        (result,) = common.run_cells([_spec()], use_cache=False)
        assert isinstance(result, SimulationResult)
        assert calls["n"] == 2


# ----------------------------------------------------------------------
# Checkpoint hygiene
# ----------------------------------------------------------------------
class TestSweep:
    def test_sweep_stale_tmp_files(self, tmp_path):
        (tmp_path / "a.ckpt.tmp").write_bytes(b"torn write")
        (tmp_path / "b.ckpt").write_bytes(b"live checkpoint")
        (tmp_path / "c.ckpt.quarantine").write_bytes(b"poison autopsy")
        removed = sweep_stale_tmp_files(tmp_path)
        assert removed == 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["b.ckpt", "c.ckpt.quarantine"]

    def test_sweep_missing_directory_is_noop(self, tmp_path):
        assert sweep_stale_tmp_files(tmp_path / "nope") == 0
