"""Figure 12 — TO reduces the total number of batches."""

from repro.experiments import fig12_num_batches


def test_fig12_fewer_batches_under_to(benchmark, bench_scale,
                                      experiment_cache, save_table):
    result = benchmark.pedantic(
        lambda: experiment_cache(fig12_num_batches, bench_scale),
        rounds=1,
        iterations=1,
    )
    print(save_table(result))
    # Average relative batch count drops below the baseline's 100%.
    assert result.value("AVERAGE", "relative_pct") < 100.0
    # A majority of workloads individually see fewer (or equal) batches.
    improved = [
        label
        for label, values in result.rows
        if label != "AVERAGE" and values["relative_pct"] <= 100.0
    ]
    total = len(result.rows) - 1
    assert len(improved) >= total // 2
    if bench_scale == "tiny":
        # The paper's -51% is compressed to -16% here (84.1%, EXPERIMENTS.md):
        # a run that reaches the paper's figure is a conscious diff.
        assert 60.0 < result.value("AVERAGE", "relative_pct") < 90.0
