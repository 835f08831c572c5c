"""Parallel fan-out correctness: jobs=N must be bit-identical to serial,
and a parallel sweep caches each result the moment it lands."""

import dataclasses
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import systems
from repro.experiments import cells as cell_layer, common
from repro.experiments.cache import run_cache
from repro.experiments.cells import RunSpec
from repro.experiments.policy import (
    RunPolicy,
    default_policy,
    run_policy,
    set_cache_dir,
)
from repro.experiments.runner import ABLATIONS, EXPERIMENTS, expand_experiments

WORKLOADS = ("KCORE", "PR")
PRESETS = (systems.BASELINE, systems.TO)


@pytest.fixture()
def isolated_cache(tmp_path):
    with run_policy(RunPolicy(cache_dir=tmp_path / "a")):
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
        set_cache_dir(isolated_cache / "b")
        with run_policy(jobs=2):
            parallel = common.run_matrix(PRESETS, WORKLOADS, scale="tiny")

        assert serial.keys() == parallel.keys()
        for key in serial:
            assert _result_fields(serial[key]) == _result_fields(
                parallel[key]
            ), f"parallel run diverged for {key}"

    def test_run_cells_preserves_order(self, isolated_cache):
        cells = [
            RunSpec(name, preset=preset, scale="tiny")
            for name in WORKLOADS
            for preset in PRESETS
        ]
        with run_policy(jobs=2):
            results = common.run_cells(cells)
        assert [r.workload for r in results] == [c.workload for c in cells]

    def test_parallel_populates_shared_cache(self, isolated_cache):
        with run_policy(jobs=2):
            common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        first_misses = run_cache().stats["misses"]
        assert first_misses == len(PRESETS)
        # A serial lookup of the same cells is now free.
        common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        assert run_cache().stats["misses"] == first_misses

    def test_default_jobs_setting(self, isolated_cache):
        with run_policy(jobs=2):
            results = common.run_matrix(PRESETS, ["KCORE"], scale="tiny")
        assert len(results) == len(PRESETS)

    def test_matrix_kwargs_reach_cells(self, isolated_cache):
        runs = common.run_matrix(
            (systems.BASELINE,),
            ("KCORE",),
            scale="tiny",
            fault_handling_cycles=40_000,
            policy=dataclasses.replace(default_policy(), jobs=2),
        )
        direct = common.run_system(
            systems.BASELINE,
            "KCORE",
            scale="tiny",
            fault_handling_cycles=40_000,
        )
        assert runs[("KCORE", "BASELINE")].exec_cycles == direct.exec_cycles


#: A ``jobs=2`` sweep whose PR cell never finishes: the sweep is still
#: running when the test kills it.
KILLED_SWEEP = """
import time
from repro import systems
from repro.experiments import cells as cell_layer
from repro.experiments.common import run_cells
from repro.experiments.policy import RunPolicy

real = cell_layer.simulate_spec

def simulate(spec):
    if spec.workload == "PR":
        time.sleep(3600)
    return real(spec)

cell_layer.simulate_spec = simulate
cells = [
    cell_layer.RunSpec(w, preset=p, scale="tiny")
    for w, p in (("PR", systems.BASELINE), ("KCORE", systems.BASELINE),
                 ("KCORE", systems.TO), ("BFS-TWC", systems.BASELINE))
]
run_cells(cells, policy=RunPolicy(cache_dir={cache!r}, jobs=2))
"""


class TestKilledSweep:
    def test_sigkilled_sweep_keeps_its_landed_cells(self, tmp_path):
        """SIGKILL a ``jobs=2`` sweep once its first cell lands: every
        cell that finished is already in the run cache, so re-running
        the sweep serves them as disk hits."""
        cache = tmp_path / "cache"
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_SWEEP.format(cache=str(cache))],
            env=dict(os.environ, PYTHONPATH=str(src)),
            start_new_session=True,  # its pool workers die with it
        )
        try:
            deadline = time.monotonic() + 60
            while not list(cache.glob("*.pkl")):
                assert proc.poll() is None, "the sweep died on its own"
                assert time.monotonic() < deadline, "no cell ever landed"
                time.sleep(0.01)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        landed = len(list(cache.glob("*.pkl")))
        assert 1 <= landed < 4

        policy = RunPolicy(cache_dir=cache)
        cells = [
            RunSpec(w, preset=p, scale="tiny")
            for w, p in (("PR", systems.BASELINE), ("KCORE", systems.BASELINE),
                         ("KCORE", systems.TO), ("BFS-TWC", systems.BASELINE))
        ]
        results = common.run_cells(cells, policy=policy)
        assert all(r.exec_cycles > 0 for r in results)
        stats = run_cache(policy).stats
        assert stats["disk_hits"] == landed
        assert stats["misses"] == 4 - landed


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
