"""Experiment CLI: ``python -m repro.experiments [fig11] [--scale small]``.

``repro-experiments all`` regenerates every table/figure and prints the
text tables the benchmarks also assert on.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro import obs as obs_mod
from repro.errors import ReproError
from repro.experiments import (
    ablations,
    fig01_working_set,
    fig03_per_page_time,
    fig05_context_switch,
    fig08_eviction_impact,
    fig11_speedup,
    fig12_num_batches,
    fig13_batch_size,
    fig14_batch_time,
    fig15_premature_eviction,
    fig16_batch_distribution,
    fig17_oversubscription_sweep,
    fig18_fault_latency_sweep,
    sec65_context_cost,
    table1_config,
)
from repro.experiments.cache import run_cache
from repro.experiments.policy import (
    RunPolicy,
    add_policy_arguments,
    default_policy,
    drain_failures,
    run_policy,
)

EXPERIMENTS = {
    "table1": table1_config,
    "fig1": fig01_working_set,
    "fig3": fig03_per_page_time,
    "fig5": fig05_context_switch,
    "fig8": fig08_eviction_impact,
    "fig11": fig11_speedup,
    "fig12": fig12_num_batches,
    "fig13": fig13_batch_size,
    "fig14": fig14_batch_time,
    "fig15": fig15_premature_eviction,
    "fig16": fig16_batch_distribution,
    "fig17": fig17_oversubscription_sweep,
    "fig18": fig18_fault_latency_sweep,
    "sec65": sec65_context_cost,
}

#: Ablation studies (not paper figures) — runnable individually, excluded
#: from the "all" target's default sweep only in the sense that each has
#: its own id.
ABLATIONS = {
    "abl-replacement": ablations.run_replacement,
    "abl-prefetch": ablations.run_prefetch,
    "abl-dirty": ablations.run_dirty,
    "abl-bandwidth": ablations.run_bandwidth,
    "abl-to-degree": ablations.run_to_degree,
    "abl-runahead": ablations.run_runahead,
}


def expand_experiments(entries: list[str]) -> list[str]:
    """Resolve the positional experiment list.

    ``all`` expands to the figure/table set and unions with any ablations
    (or extra figures) named alongside it, preserving order and deduping —
    ``repro-experiments all abl-dirty`` runs everything plus abl-dirty.
    """
    names: list[str] = []
    for entry in entries:
        expansion = list(EXPERIMENTS) if entry == "all" else [entry]
        for name in expansion:
            if name not in names:
                names.append(name)
    return names


def _dump_failures(directory: str, experiment: str, failures) -> None:
    """Write the failed cells of one experiment as a JSON snapshot."""
    import json
    import pathlib

    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{experiment}-failures.json"
    path.write_text(
        json.dumps(
            {
                "experiment": experiment,
                "failures": [f.to_dict() for f in failures],
            },
            indent=2,
            default=repr,
        )
        + "\n"
    )
    print(f"  failure snapshot: {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Batch-Aware Unified "
            "Memory Management in GPUs for Irregular Workloads' "
            "(ASPLOS 2020)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        default=["all"],
        help=(
            f"experiment ids ({', '.join(EXPERIMENTS)}), 'all', "
            f"or ablations ({', '.join(ABLATIONS)})"
        ),
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "medium", "paper"],
        help="workload scale (default: tiny; 'small' matches EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also draw each result as an ASCII bar chart",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also write each rendered table to DIR/<experiment>.txt",
    )
    add_policy_arguments(
        parser,
        "jobs",
        "no_cache",
        "cache_dir",
        "cache_quota_mb",
        "no_progress",
    )
    parser.add_argument(
        "--obs",
        choices=obs_mod.MODES,
        default="off",
        help=(
            "observability level for this invocation (default: off; "
            "implied 'full' when --trace-out/--metrics-out is given)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "write a Chrome trace-event JSON of the session: harness "
            "per-cell spans plus full sim tracks for every cell executed "
            "in-process (Perfetto-loadable)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the session metric registry as JSON (CSV if PATH ends "
        "in .csv)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=200_000,
        metavar="N",
        help="ring-buffer capacity for trace events (default: 200000)",
    )
    parser.add_argument(
        "--analytics-out",
        metavar="PATH",
        help=(
            "write a batch-analytics report (JSON) covering every cell "
            "simulated in-process; implies --obs light (cache hits and "
            "worker-process cells contribute no batches — combine with "
            "--no-cache and --jobs 1 for full coverage)"
        ),
    )
    parser.add_argument(
        "--features-out",
        metavar="PATH",
        help=(
            "write per-batch feature vectors for every in-process cell, "
            "JSONL or .csv (implies --obs light; see --analytics-out "
            "caveats)"
        ),
    )
    add_policy_arguments(
        parser,
        "chaos",
        "chaos_seed",
        "invariants",
        "cell_timeout",
        "retries",
        "checkpoint_dir",
        "checkpoint_every",
        "resume",
        "worker_deadline",
        "breaker_threshold",
        "keep_going",
        "failure_dir",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    names = expand_experiments(args.experiment)
    unknown = [
        n for n in names if n not in EXPERIMENTS and n not in ABLATIONS
    ]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    try:
        policy = RunPolicy.from_args(
            args,
            replace(default_policy(), progress=sys.stderr.isatty()),
        )
    except ReproError as exc:
        parser.error(str(exc))
    cache = run_cache(policy)
    if args.cache_quota_mb is not None:
        cache.enforce_quota(policy.cache_quota_bytes)

    analytics = bool(args.analytics_out or args.features_out)
    obs_mode = args.obs
    if obs_mode == "off" and (args.trace_out or args.metrics_out):
        obs_mode = "full"
    if obs_mode == "off" and analytics:
        obs_mode = "light"
    obs = (
        None
        if obs_mode == "off"
        else obs_mod.Observability(
            obs_mode,
            max_trace_events=args.trace_buffer,
            analytics=analytics,
        )
    )
    previous_obs = obs_mod.install(obs) if obs is not None else None
    if obs is not None and (args.jobs or 0) > 1 and args.trace_out:
        print(
            "note: cells dispatched to worker processes appear as one "
            "fan-out span; run with --jobs 1 for full per-cell sim tracks",
            file=sys.stderr,
        )

    exit_code = 0
    try:
        with run_policy(policy):
            for name in names:
                runner = (
                    EXPERIMENTS[name].run
                    if name in EXPERIMENTS
                    else ABLATIONS[name]
                )
                before = dict(cache.stats)
                start = time.time()
                if obs is not None:
                    with obs.tracer.wall_span(
                        "experiments", name, scale=args.scale
                    ):
                        result = runner(scale=args.scale)
                else:
                    result = runner(scale=args.scale)
                elapsed = time.time() - start
                after = dict(cache.stats)
                print(result.format_table())
                if args.output:
                    import pathlib

                    out_dir = pathlib.Path(args.output)
                    out_dir.mkdir(parents=True, exist_ok=True)
                    (out_dir / f"{result.experiment}.txt").write_text(
                        result.format_table() + "\n"
                    )
                if args.chart:
                    from repro.experiments.charts import horizontal_bars

                    print()
                    print(horizontal_bars(result))
                ran = after["misses"] - before["misses"]
                hits = (
                    after["memory_hits"]
                    + after["disk_hits"]
                    - before["memory_hits"]
                    - before["disk_hits"]
                )
                disk = after["disk_hits"] - before["disk_hits"]
                failures = drain_failures()
                if failures:
                    print(f"[{name}: {len(failures)} cell(s) FAILED]")
                    for failure in failures:
                        print(f"  - {failure.summary()}")
                    if args.failure_dir:
                        _dump_failures(args.failure_dir, name, failures)
                    exit_code = 1
                print(
                    f"[{name} completed in {elapsed:.1f}s at "
                    f"scale={args.scale} — {ran} cells run, {hits} cache "
                    f"hits ({disk} from disk)]"
                )
                print()
        if obs is not None:
            if args.trace_out:
                path = obs_mod.write_chrome_trace(obs.tracer, args.trace_out)
                dropped = (
                    f" ({obs.tracer.dropped:,} dropped beyond the "
                    f"{args.trace_buffer:,}-event ring)"
                    if obs.tracer.dropped
                    else ""
                )
                print(
                    f"trace: {len(obs.tracer.events):,} events -> "
                    f"{path}{dropped}"
                )
            if args.metrics_out:
                path = obs_mod.write_metrics(obs.metrics, args.metrics_out)
                print(f"metrics: {len(obs.metrics)} series -> {path}")
            if obs.analytics is not None:
                import json

                runs = obs.analytics.runs
                if args.analytics_out:
                    report = obs_mod.build_report(
                        [obs_mod.analyze_run(run) for run in runs]
                    )
                    with open(args.analytics_out, "w") as fh:
                        json.dump(report, fh, indent=2)
                        fh.write("\n")
                    print(
                        f"analysis: {len(runs)} in-process runs -> "
                        f"{args.analytics_out}"
                    )
                if args.features_out:
                    path = obs_mod.write_features(runs, args.features_out)
                    total = sum(len(run.batches) for run in runs)
                    print(f"features: {total} batches -> {path}")
    finally:
        if obs is not None:
            obs_mod.install(previous_obs)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
