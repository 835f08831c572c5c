"""Figure 14 — average batch processing time across BASELINE/TO/TO+UE."""

from repro.experiments import fig14_batch_time


def test_fig14_batch_processing_time(benchmark, bench_scale,
                                     experiment_cache, save_table):
    result = benchmark.pedantic(
        lambda: experiment_cache(fig14_batch_time, bench_scale),
        rounds=1,
        iterations=1,
    )
    print(save_table(result))
    to_avg = result.value("AVERAGE", "to")
    to_ue_avg = result.value("AVERAGE", "to_ue")
    # UE pulls the batch processing time below TO alone (paper: -60%) —
    # the central claim of Figure 14.
    assert to_ue_avg < to_avg
    # TO alone raises batch processing time (bigger batches).
    assert to_avg > 1.0
    # TO+UE lands below the baseline's batch processing time (paper: -13%).
    assert to_ue_avg < 1.0
