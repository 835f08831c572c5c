"""Tests for the experiment harness (cheap experiments only)."""

import pytest

from repro.experiments import common
from repro.experiments.cache import clear_run_cache
from repro.experiments.cells import half_ratio
from repro.experiments.common import ExperimentResult
from repro.experiments import (
    fig01_working_set,
    fig03_per_page_time,
    fig16_batch_distribution,
    fig17_oversubscription_sweep,
    table1_config,
)
from repro.experiments.runner import EXPERIMENTS, main


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("x", "Title", ["a", "b"])
        result.add_row("w1", a=1.0, b=2.0)
        result.add_row("w2", a=3.0, b=4.0)
        return result

    def test_value_lookup(self):
        result = self.make()
        assert result.value("w1", "b") == 2.0
        with pytest.raises(KeyError):
            result.value("nope", "a")

    def test_column_and_mean(self):
        result = self.make()
        assert result.column("a") == [1.0, 3.0]
        assert result.mean("a") == 2.0

    def test_format_table_contains_everything(self):
        text = self.make().format_table()
        assert "Title" in text
        assert "w1" in text
        for col in ("a", "b"):
            assert col in text

    def test_format_table_handles_missing_cells(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row("w1", a=1.0)
        assert "-" in result.format_table()


class TestRunSystem:
    def test_caching_returns_same_object(self):
        from repro import systems

        clear_run_cache()
        a = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        b = common.run_system(systems.BASELINE, "KCORE", scale="tiny")
        assert a is b
        c = common.run_system(
            systems.BASELINE, "KCORE", scale="tiny", use_cache=False
        )
        assert c is not a

    def test_default_ratio_is_scale_calibrated(self):
        from repro.workloads.registry import SCALES

        assert half_ratio("tiny") == SCALES["tiny"].half_memory_ratio

    def test_run_matrix_keys(self):
        from repro import systems

        results = common.run_matrix(
            [systems.BASELINE], ["KCORE"], scale="tiny"
        )
        assert ("KCORE", "BASELINE") in results


class TestCheapExperiments:
    def test_table1_matches_paper(self):
        result = table1_config.run()
        for label, expected in table1_config.PAPER_TABLE1.items():
            assert result.value(label, "value") == expected

    def test_fig1_regular_scales_irregular_flat(self):
        result = fig01_working_set.run(
            scale="tiny", sm_counts=(1, 4, 16)
        )
        summary = fig01_working_set.sharing_summary(result)
        assert summary["regular_1sm"] < summary["irregular_1sm"]

    def test_fig3_produces_batches(self):
        result = fig03_per_page_time.run(scale="tiny", workload="KCORE")
        assert result.rows
        means = fig03_per_page_time.bucket_means(result)
        assert means

    def test_fig16_distributions_normalised(self):
        result = fig16_batch_distribution.run(scale="tiny", workload="KCORE")
        for column in ("baseline_frac", "to_frac"):
            assert sum(v[column] for _, v in result.rows) == pytest.approx(1.0)

    def test_fig17_endpoints(self):
        result = fig17_oversubscription_sweep.run(
            scale="tiny", workload="KCORE", ratios=(0.7, 1.0)
        )
        assert result.value("1.0", "relative_exec_time") == 1.0
        assert result.value("1.0", "ue_speedup") == 1.0
        assert result.value("0.7", "relative_exec_time") > 1.0


class TestRunnerCli:
    def test_all_experiments_registered(self):
        for key in ("table1", "fig1", "fig3", "fig5", "fig8", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                    "fig18", "sec65"):
            assert key in EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_single_experiment_runs(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
