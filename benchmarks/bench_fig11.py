"""Figure 11 — the headline speedup comparison."""

from repro.experiments import fig11_speedup


def test_fig11_headline_speedups(benchmark, bench_scale, experiment_cache,
                                 save_table):
    result = benchmark.pedantic(
        lambda: experiment_cache(fig11_speedup, bench_scale),
        rounds=1,
        iterations=1,
    )
    print(save_table(result))
    avg = {col: result.value("AVERAGE", col) for col in result.columns}

    # TO+UE is the best system on average and clearly beats the baseline.
    assert avg["TO+UE"] > 1.15
    assert avg["TO+UE"] >= max(avg["TO"], avg["UE"]) - 0.02
    # UE contributes more than TO (paper: +61% vs +22%).
    assert avg["UE"] > avg["TO"]
    # TO+UE outperforms ETC (paper: by 79%).
    assert avg["TO+UE"] > avg["ETC"]
    # PCIe compression helps only modestly compared to TO+UE.
    assert avg["BASELINE+PCIeC"] < avg["TO+UE"] + 0.05
    # Sanity: baseline column is exactly 1.
    assert avg["BASELINE"] == 1.0
