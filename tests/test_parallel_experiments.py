"""Parallel fan-out correctness: jobs=N must be bit-identical to serial."""

import dataclasses

import pytest

from repro import systems
from repro.experiments import common
from repro.experiments.runner import ABLATIONS, EXPERIMENTS, expand_experiments

WORKLOADS = ("KCORE", "PR")
PRESETS = (systems.BASELINE, systems.TO)


@pytest.fixture()
def isolated_cache(tmp_path):
    with common.run_policy(common.RunPolicy(cache_dir=tmp_path / "a")):
        yield tmp_path



def _result_fields(result):
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


class TestParallelEquality:
    def test_parallel_matrix_matches_serial(self, isolated_cache):
        serial = common.run_matrix(PRESETS, WORKLOADS, scale="tiny")

        # A fresh cache dir has a fresh memo: the parallel run recomputes
        # every cell in worker processes.
        common.set_cache_dir(isolated_cache / "b")
        with common.run_policy(jobs=2):
            parallel = common.run_matrix(PRESETS, WORKLOADS, scale="tiny")

        assert serial.keys() == parallel.keys()
        for key in serial:
            assert _result_fields(serial[key]) == _result_fields(
                parallel[key]
            ), f"parallel run diverged for {key}"

    def test_run_cells_preserves_order(self, isolated_cache):
        cells = [
            common.RunSpec(name, preset=preset, scale="tiny")
            for name in WORKLOADS
            for preset in PRESETS
        ]
        with common.run_policy(jobs=2):
            results = common.run_cells(cells)
        assert [r.workload for r in results] == [c.workload for c in cells]

    def test_parallel_populates_shared_cache(self, isolated_cache):
        with common.run_policy(jobs=2):
            common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        first_misses = common.cache_stats()["misses"]
        assert first_misses == len(PRESETS)
        # A serial lookup of the same cells is now free.
        common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        assert common.cache_stats()["misses"] == first_misses

    def test_default_jobs_setting(self, isolated_cache):
        with common.run_policy(jobs=2):
            results = common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        assert len(results) == len(PRESETS)

    def test_matrix_kwargs_reach_cells(self, isolated_cache):
        runs = common.run_matrix(
            (systems.BASELINE,),
            ("KCORE",),
            scale="tiny",
            fault_handling_cycles=40_000,
            policy=dataclasses.replace(common.default_policy(), jobs=2),
        )
        direct = common.run_system(
            systems.BASELINE,
            "KCORE",
            scale="tiny",
            fault_handling_cycles=40_000,
        )
        assert runs[("KCORE", "BASELINE")].exec_cycles == direct.exec_cycles


class TestRunnerExpansion:
    """Regression: ``all abl-dirty`` used to drop the named ablation."""

    def test_all_alone(self):
        assert expand_experiments(["all"]) == list(EXPERIMENTS)

    def test_all_unions_with_named_ablation(self):
        names = expand_experiments(["all", "abl-dirty"])
        assert names[: len(EXPERIMENTS)] == list(EXPERIMENTS)
        assert names[-1] == "abl-dirty"

    def test_ablation_before_all_keeps_position(self):
        names = expand_experiments(["abl-dirty", "all"])
        assert names[0] == "abl-dirty"
        assert set(names) == set(EXPERIMENTS) | {"abl-dirty"}

    def test_duplicates_collapse(self):
        assert expand_experiments(["fig11", "fig11", "all"]) == (
            ["fig11"] + [n for n in EXPERIMENTS if n != "fig11"]
        )

    def test_every_ablation_is_addressable(self):
        for name in ABLATIONS:
            assert expand_experiments(["all", name])[-1] == name
