"""Chaos injection: spec grammar, determinism, and per-injector effects."""

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.chaos import ChaosSession
from repro.chaos.config import ChaosConfig, InjectorSpec, parse_chaos_spec
from repro.errors import InjectionError


def run_sim(chaos=None, *, system=systems.BASELINE, check_invariants=False):
    workload = build_workload("BFS-TTC", scale="tiny", seed=0)
    config = system.configure(
        workload, ratio=0.5, chaos=chaos, check_invariants=check_invariants
    )
    return GpuUvmSimulator(workload, config).run()


class TestSpecParsing:
    def test_single_injector_no_params(self):
        config = parse_chaos_spec("drop-fault", seed=3)
        assert config.injectors == (InjectorSpec("drop-fault"),)
        assert config.seed == 3

    def test_multi_injector_with_params(self):
        config = parse_chaos_spec(
            "fault-latency:mult=2,add=500;dma-stall:prob=0.1"
        )
        assert [spec.kind for spec in config.injectors] == [
            "fault-latency",
            "dma-stall",
        ]
        assert config.injectors[0].param("mult", 1.0) == 2.0
        assert config.injectors[0].param("add", 0.0) == 500.0
        assert config.injectors[1].param("prob", 0.0) == 0.1

    def test_spec_string_round_trips(self):
        text = "fault-latency:mult=2,add=500;drop-fault:prob=0.25"
        config = parse_chaos_spec(text)
        assert parse_chaos_spec(config.spec_string()) == config

    def test_unknown_kind_rejected(self):
        with pytest.raises(InjectionError, match="unknown chaos injector"):
            parse_chaos_spec("meteor-strike")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InjectionError, match="unknown parameter"):
            parse_chaos_spec("drop-fault:mult=2")

    def test_malformed_pair_rejected(self):
        with pytest.raises(InjectionError, match="malformed chaos parameter"):
            parse_chaos_spec("drop-fault:prob")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(InjectionError, match="must be numeric"):
            parse_chaos_spec("drop-fault:prob=often")

    def test_prob_out_of_range_rejected(self):
        with pytest.raises(InjectionError, match="within"):
            parse_chaos_spec("drop-fault:prob=1.5")

    def test_empty_spec_rejected(self):
        with pytest.raises(InjectionError):
            parse_chaos_spec("")
        with pytest.raises(InjectionError):
            parse_chaos_spec(" ; ")

    def test_config_is_hashable(self):
        a = parse_chaos_spec("drop-fault:prob=0.5", seed=1)
        b = parse_chaos_spec("drop-fault:prob=0.5", seed=1)
        assert hash(a) == hash(b) and a == b


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        chaos = parse_chaos_spec(
            "fault-latency:prob=0.5,mult=2;dma-stall:prob=0.2;"
            "drop-fault:prob=0.05;dup-fault:prob=0.1;evict-contend:prob=0.3",
            seed=42,
        )
        first = run_sim(chaos)
        second = run_sim(chaos)
        assert first.exec_cycles == second.exec_cycles
        assert first.batch_stats.num_batches == second.batch_stats.num_batches
        assert first.extras == second.extras
        assert first.extras["chaos.total_injections"] > 0

    def test_different_seed_diverges(self):
        spec = "fault-latency:prob=0.5,mult=3;drop-fault:prob=0.1"
        a = run_sim(parse_chaos_spec(spec, seed=1))
        b = run_sim(parse_chaos_spec(spec, seed=2))
        # Different RNG streams must perturb differently somewhere.
        assert (a.exec_cycles, a.extras) != (b.exec_cycles, b.extras)

    def test_injector_streams_are_independent(self):
        """Adding an injector must not change another's decisions."""
        solo = ChaosSession(parse_chaos_spec("drop-fault:prob=0.5", seed=9))
        both = ChaosSession(
            parse_chaos_spec("drop-fault:prob=0.5;dup-fault:prob=0.5", seed=9)
        )
        solo_actions = [solo.fault_entry_action(p, p) for p in range(64)]
        both_actions = [both.fault_entry_action(p, p) for p in range(64)]
        dropped = [a == "drop" for a in solo_actions]
        assert dropped == [a == "drop" for a in both_actions]


class TestInjectorEffects:
    def test_fault_latency_slows_the_run(self):
        clean = run_sim()
        slowed = run_sim(parse_chaos_spec("fault-latency:mult=4", seed=0))
        assert slowed.exec_cycles > clean.exec_cycles
        assert slowed.extras["chaos.fault-latency"] > 0

    def test_dma_stall_records_stall_cycles(self):
        result = run_sim(parse_chaos_spec("dma-stall:prob=0.5", seed=0))
        assert result.extras["chaos.dma-stall"] > 0
        assert result.extras["chaos.dma_stall_cycles"] > 0

    def test_drop_fault_liveness(self):
        """Dropped faults are replayed at batch end — the run completes."""
        result = run_sim(
            parse_chaos_spec("drop-fault:prob=0.5", seed=0),
            check_invariants=True,
        )
        assert result.extras["chaos.faults_dropped"] > 0
        assert result.exec_cycles > 0

    def test_dup_fault_accounts_duplicates(self):
        result = run_sim(
            parse_chaos_spec("dup-fault:prob=0.5", seed=0),
            check_invariants=True,
        )
        assert result.extras["chaos.faults_duplicated"] > 0

    def test_evict_contend_on_eviction_system(self):
        clean = run_sim(system=systems.UE)
        result = run_sim(
            parse_chaos_spec("evict-contend:prob=1.0,mult=8", seed=0),
            system=systems.UE,
        )
        assert result.extras["chaos.evict-contend"] > 0
        assert result.exec_cycles >= clean.exec_cycles

    def test_fail_batch_raises_injection_error(self):
        with pytest.raises(InjectionError, match="fail-batch"):
            run_sim(parse_chaos_spec("fail-batch:batch=0"))

    def test_chaos_survives_under_invariants(self):
        """Every invariant holds on a heavily perturbed run."""
        chaos = parse_chaos_spec(
            "fault-latency:prob=0.5,mult=2;dma-stall:prob=0.3;"
            "drop-fault:prob=0.2;dup-fault:prob=0.2;evict-contend:prob=0.5",
            seed=1234,
        )
        result = run_sim(chaos, system=systems.TO_UE, check_invariants=True)
        assert result.extras["invariant_checks"] > 0
        assert result.extras["chaos.total_injections"] > 0

    def test_no_chaos_means_no_extras(self):
        result = run_sim()
        assert "chaos.total_injections" not in result.extras


class TestCacheKeyCoverage:
    def test_chaos_is_part_of_the_memo_key(self):
        import dataclasses

        from repro.experiments.cells import RunSpec, memo_key

        base = RunSpec("KCORE", preset=systems.BASELINE).resolved()
        chaotic = dataclasses.replace(
            base, chaos=parse_chaos_spec("drop-fault:prob=0.1", seed=0)
        )
        reseeded = dataclasses.replace(
            base, chaos=parse_chaos_spec("drop-fault:prob=0.1", seed=1)
        )
        checked = dataclasses.replace(base, check_invariants=True)
        keys = {
            memo_key(spec)
            for spec in (base, chaotic, reseeded, checked)
        }
        assert len(keys) == 4

    def test_timeout_is_not_part_of_the_memo_key(self):
        import dataclasses

        from repro.experiments.cells import RunSpec, memo_key

        base = RunSpec("KCORE", preset=systems.BASELINE).resolved()
        budgeted = dataclasses.replace(base, wall_budget_seconds=30.0)
        assert memo_key(base) == memo_key(budgeted)
