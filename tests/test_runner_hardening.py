"""Self-healing experiment runner: retries, keep-going, cache quarantine."""

import os

import pytest

from repro import systems
from repro.chaos.config import parse_chaos_spec
from repro.errors import (
    CellFailure,
    ConfigError,
    SimulationError,
    SimulationStalledError,
)
from repro.experiments import cells as cell_layer, common
from repro.experiments.cache import clear_run_cache, run_cache
from repro.experiments.cells import RunSpec
from repro.experiments.policy import RunPolicy, drain_failures, run_policy

FAILING_CHAOS = parse_chaos_spec("fail-batch:batch=0", seed=0)


@pytest.fixture()
def harness(tmp_path):
    """Isolated cache plus pristine failure/retry policy, restored after."""
    with run_policy(RunPolicy(cache_dir=tmp_path)):
        yield tmp_path


def specs(*chaos_slots):
    """One BFS-TTC cell per slot; a truthy slot injects failing chaos."""
    presets = (systems.BASELINE, systems.UE, systems.TO)
    return [
        RunSpec(
            "BFS-TTC",
            preset=presets[i % len(presets)],
            scale="tiny",
            chaos=FAILING_CHAOS if bad else None,
        )
        for i, bad in enumerate(chaos_slots)
    ]


class TestQuarantine:
    def test_corrupt_entry_quarantined_with_warning(self, harness):
        first = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        (entry,) = harness.glob("*.pkl")
        entry.write_bytes(b"these are not the bytes you pickled")
        clear_run_cache()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert second.exec_cycles == first.exec_cycles  # recomputed
        corrupt = list(harness.glob("*.pkl.corrupt"))
        assert len(corrupt) == 1, "corrupted entry must be kept for autopsy"
        assert list(harness.glob("*.pkl")), "recomputed result re-cached"

    def test_missing_entry_stays_a_silent_miss(self, harness):
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        for path in harness.glob("*.pkl"):
            path.unlink()
        clear_run_cache()
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert not list(harness.glob("*.pkl.corrupt"))

    def test_clear_persistent_cache_sweeps_quarantined_files(self, harness):
        common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        (entry,) = harness.glob("*.pkl")
        entry.write_bytes(b"junk")
        clear_run_cache()
        with pytest.warns(RuntimeWarning):
            common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert run_cache().clear() >= 2  # fresh .pkl + .corrupt
        assert not list(harness.glob("*"))


class TestOnErrorPolicy:
    def test_raise_policy_aborts_with_structured_failure(self, harness):
        with run_policy(chaos=FAILING_CHAOS):
            with pytest.raises(CellFailure) as excinfo:
                common.run_system(systems.BASELINE, "BFS-TTC", scale="tiny")
        failure = excinfo.value
        assert failure.workload == "BFS-TTC"
        assert failure.system == "BASELINE"
        assert failure.error_type == "InjectionError"
        assert failure.__cause__ is not None  # chained to the original

    def test_keep_going_serial_sweep_completes(self, harness):
        with run_policy(on_error="keep-going"):
            results = common.run_cells(specs(False, True, False))
            failures = drain_failures()
            assert drain_failures() == []  # drained exactly once
        assert [common.is_failure(r) for r in results] == [False, True, False]
        assert len(failures) == 1
        assert failures[0].system == "UE"

    def test_keep_going_parallel_sweep_completes(self, harness):
        with run_policy(on_error="keep-going", jobs=2):
            results = common.run_cells(specs(True, False, False))
            assert len(drain_failures()) == 1
        assert [common.is_failure(r) for r in results] == [True, False, False]

    def test_failed_cells_are_never_cached(self, harness):
        with run_policy(on_error="keep-going"):
            results = common.run_cells(specs(False, True, False))
        successes = sum(not common.is_failure(r) for r in results)
        assert len(list(harness.glob("*.pkl"))) == successes

    def test_failure_record_serializes(self, harness):
        with run_policy(on_error="keep-going") as failures:
            common.run_cells(specs(True))
        (failure,) = failures
        record = failure.to_dict()
        assert record["workload"] == "BFS-TTC"
        assert record["error_type"] == "InjectionError"
        assert "fail-batch" in record["message"]
        assert "BFS-TTC" in failure.summary()


class TestRetryPolicy:
    def test_transient_error_retried(self, harness, monkeypatch):
        real = cell_layer.simulate_spec
        calls = []

        def flaky(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise OSError("spurious I/O hiccup")
            return real(spec)

        monkeypatch.setattr(cell_layer, "simulate_spec", flaky)
        with run_policy(retries=2, retry_backoff=0.0):
            result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert result.exec_cycles > 0
        assert len(calls) == 2

    def test_deterministic_error_not_retried(self, harness, monkeypatch):
        calls = []

        def broken(spec):
            calls.append(spec)
            raise SimulationError("same bits, same crash")

        monkeypatch.setattr(cell_layer, "simulate_spec", broken)
        with run_policy(
            retries=5, retry_backoff=0.0, on_error="keep-going"
        ):
            result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert common.is_failure(result)
        assert len(calls) == 1, "re-running a deterministic failure is waste"

    def test_retry_budget_exhausted(self, harness, monkeypatch):
        calls = []

        def always_flaky(spec):
            calls.append(spec)
            raise OSError("the disk is on fire")

        monkeypatch.setattr(cell_layer, "simulate_spec", always_flaky)
        with run_policy(
            retries=2, retry_backoff=0.0, on_error="keep-going"
        ):
            result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert common.is_failure(result)
        assert result.error_type == "OSError"
        assert len(calls) == 3  # first attempt + 2 retries

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_exception_propagates(self, harness, monkeypatch, jobs):
        """Outside the failure taxonomy is a bug, on the pool path too:
        it is never turned into a ``CellFailure`` slot."""

        def buggy(spec):
            raise ValueError("a bug, not a cell failure")

        monkeypatch.setattr(cell_layer, "simulate_spec", buggy)
        with run_policy(on_error="keep-going", jobs=jobs):
            with pytest.raises(ValueError):
                common.run_cells(specs(False, False))

    def test_pool_retry_runs_in_a_worker(self, harness, monkeypatch):
        """Under ``jobs=2`` the retry after a transient error goes back
        to the pool: no attempt runs in the parent process."""
        real = cell_layer.simulate_spec
        log = harness / "attempts.log"

        def flaky(spec):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if len(log.read_text().split()) == 1:
                raise OSError("spurious I/O hiccup")
            return real(spec)

        monkeypatch.setattr(cell_layer, "simulate_spec", flaky)
        with run_policy(jobs=2, retries=2, retry_backoff=0.01):
            result = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert result.exec_cycles > 0
        pids = [int(pid) for pid in log.read_text().split()]
        assert len(pids) == 2
        assert os.getpid() not in pids, "a pool retry ran in the parent"


class TestCellTimeout:
    # ratio=0.5 keeps the cell above the watchdog's 8192-event sampling
    # interval; a shorter run finishes before the deadline is ever read.
    def test_timeout_becomes_structured_failure(self, harness):
        with run_policy(cell_timeout=1e-9, on_error="keep-going"):
            result = common.run_system(
                systems.BASELINE, "BFS-TTC", scale="tiny", ratio=0.5
            )
        assert common.is_failure(result)
        assert result.error_type == "SimulationStalledError"

    def test_timeout_raises_under_default_policy(self, harness):
        with run_policy(cell_timeout=1e-9):
            with pytest.raises(CellFailure) as excinfo:
                common.run_system(
                    systems.BASELINE, "BFS-TTC", scale="tiny", ratio=0.5
                )
        assert isinstance(excinfo.value.__cause__, SimulationStalledError)


class TestPolicyDefaults:
    def test_resolved_fills_policy_defaults(self, harness):
        chaos = parse_chaos_spec("drop-fault:prob=0.1", seed=5)
        policy = RunPolicy(
            chaos=chaos, invariants=True, cell_timeout=30.0
        )
        spec = policy.apply(RunSpec("KCORE", preset=systems.BASELINE))
        assert spec.chaos == chaos
        assert spec.check_invariants is True
        assert spec.wall_budget_seconds == 30.0

    def test_explicit_spec_beats_defaults(self, harness):
        policy = RunPolicy(chaos=FAILING_CHAOS)
        other = parse_chaos_spec("dup-fault:prob=0.2", seed=1)
        spec = policy.apply(
            RunSpec("KCORE", preset=systems.BASELINE, chaos=other)
        )
        assert spec.chaos == other

    def test_setter_validation(self):
        with pytest.raises(ConfigError):
            RunPolicy(cell_timeout=0)
        with pytest.raises(ConfigError):
            RunPolicy(retries=-1)
        with pytest.raises(ConfigError):
            RunPolicy(on_error="shrug")
