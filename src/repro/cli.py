"""Single-run CLI: ``python -m repro WORKLOAD [options]``.

Runs one workload under one system preset and — unlike the experiment
runner, which aggregates matrices of cells — exposes the full
observability layer for that single run:

* ``--trace-out trace.json`` — Chrome trace-event JSON with batches, the
  eviction stream, both DMA channels, and per-SM warp-stall lanes as
  named tracks; open it at https://ui.perfetto.dev or ``chrome://tracing``.
* ``--metrics-out metrics.json`` (or ``.csv``) — flat metric dump:
  counters, gauges, and histograms with min/max/p50/p99 tails.
* ``--report`` — the ``repro.obs.report`` text summary on stdout.
* ``--obs off|light|full`` — instrumentation level (default ``full``;
  ``off`` runs the exact un-instrumented hot path).
* ``--checkpoint-dir DIR`` — write resumable whole-simulation
  checkpoints at batch boundaries (every ``--checkpoint-every`` batches,
  and when ``--wall-budget`` stalls the run); ``--resume`` continues a
  previous invocation from its checkpoint, bit-identical to an
  uninterrupted run.
* ``--result-out PATH`` — dump the full ``SimulationResult`` as JSON
  (the CI kill-and-resume job diffs these across interruptions).

Example::

    python -m repro BC --scale tiny --system TO_UE \\
        --trace-out trace.json --metrics-out metrics.json --report
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs as obs_mod
from repro import systems
from repro.errors import ReproError
from repro.experiments import common
from repro.workloads.registry import SCALES, workload_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run one workload under one system preset, with optional "
            "trace/metric export (Perfetto / chrome://tracing compatible)."
        ),
    )
    parser.add_argument(
        "workload",
        help=f"workload name ({', '.join(workload_names())})",
    )
    parser.add_argument(
        "--system",
        "-s",
        default="TO_UE",
        help="system preset (default: TO_UE; see repro.systems)",
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(SCALES),
        help="workload scale (default: tiny)",
    )
    parser.add_argument(
        "--ratio",
        type=float,
        default=None,
        help=(
            "GPU memory as a fraction of the workload footprint "
            "(default: the scale's calibrated 50%% oversubscription, "
            "the ratio repro-experiments and repro-serve use)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-events",
        type=int,
        default=common.MAX_EVENTS,
        help="abort the run after this many engine events "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--obs",
        choices=obs_mod.MODES,
        default="full",
        help=(
            "instrumentation level (default: full; 'off' runs the "
            "un-instrumented hot path)"
        ),
    )
    parser.add_argument(
        "--trace-obs-events",
        "--trace-buffer",
        dest="trace_obs_events",
        type=int,
        default=200_000,
        metavar="N",
        help=(
            "ring-buffer capacity for trace events (default: 200000); "
            "events beyond the ring are counted as dropped"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write Chrome trace-event JSON (Perfetto-loadable)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metric registry as JSON (or CSV if PATH ends in .csv)",
    )
    parser.add_argument(
        "--report",
        "-r",
        action="store_true",
        help="print the repro.obs.report text summary",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "print the ASCII Figure-2 batch timeline; its ! eviction and "
            "* arrival markers need --obs light (evictions) or full (both; "
            "the default)"
        ),
    )
    parser.add_argument(
        "--analytics",
        action="store_true",
        help=(
            "enable batch-level analytics (stall attribution, batch "
            "records, flight recorder) and print the bottleneck report"
        ),
    )
    parser.add_argument(
        "--analytics-out",
        metavar="PATH",
        help="write the analysis report JSON (implies --analytics)",
    )
    parser.add_argument(
        "--features-out",
        metavar="PATH",
        help=(
            "write per-batch feature vectors, JSONL or .csv "
            "(implies --analytics)"
        ),
    )
    parser.add_argument(
        "--flight-out",
        metavar="PATH",
        help=(
            "on failure, write the flight-recorder dump (recent batches "
            "+ engine events) to PATH (implies --analytics)"
        ),
    )
    common.add_policy_arguments(
        parser,
        "chaos",
        "chaos_seed",
        "invariants",
        "cell_timeout",
        "checkpoint_dir",
        "checkpoint_every",
        "resume",
    )
    parser.add_argument(
        "--result-out",
        metavar="PATH",
        help="write the SimulationResult as JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    analytics = bool(
        args.analytics
        or args.analytics_out
        or args.features_out
        or args.flight_out
    )
    wants_obs_output = (
        args.trace_out or args.metrics_out or args.report or analytics
    )
    if args.obs == "off" and wants_obs_output:
        parser.error(
            "--trace-out/--metrics-out/--report/--analytics require "
            "--obs light or full"
        )

    try:
        policy = common.RunPolicy.from_args(args, common.RunPolicy())
        spec = policy.apply(
            common.RunSpec(
                args.workload,
                preset=systems.by_name(args.system),
                scale=args.scale,
                ratio=args.ratio,
                seed=args.seed,
                max_events=args.max_events,
            )
        )
    except (KeyError, ReproError) as exc:
        parser.error(str(exc).strip('"'))
    if spec.pool_chaos is not None:
        parser.error(
            "process-level chaos kinds (worker-*) act on pool workers; "
            "this CLI runs its cell in process"
        )

    obs = (
        obs_mod.Observability(
            args.obs,
            max_trace_events=args.trace_obs_events,
            analytics=analytics,
        )
        if args.obs != "off"
        else None
    )
    previous_obs = obs_mod.install(obs)
    try:
        try:
            sim, resumed = common.open_cell(spec)
        except ReproError as exc:
            parser.error(str(exc))
        if resumed:
            # The restored simulator carries its original instrumentation
            # (pickled with it); report from that, not this invocation's.
            obs = sim.obs
            checkpoint_file = common._checkpoint_file(spec)
            print(
                f"resuming {checkpoint_file} "
                f"(cycle {sim.engine.now:,}, "
                f"batch {sim.runtime.batch_stats.num_batches})"
            )
            if wants_obs_output and (
                obs is None or (analytics and obs.analytics is None)
            ):
                cause = (
                    "under --obs off" if obs is None else "without --analytics"
                )
                parser.error(
                    f"{checkpoint_file} was written {cause}, so its resumed "
                    "run cannot produce the requested --trace-out/"
                    "--metrics-out/--report/--analytics output; drop those "
                    "flags, or drop --resume to start fresh"
                )
        try:
            result = common.drive_cell(spec, sim, resumed)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            saved = getattr(exc, "checkpoint_path", None)
            if saved:
                print(
                    f"checkpoint: {saved} (rerun with --resume to continue)",
                    file=sys.stderr,
                )
            dump = getattr(exc, "flight_recorder", None)
            if dump is not None and args.flight_out:
                path = obs_mod.write_flight_dump(dump, args.flight_out)
                print(
                    f"flight recorder: {len(dump['events'])} events -> {path}"
                )
            return 1
    finally:
        obs_mod.install(previous_obs)

    if args.result_out:
        # One serialiser shared with the serving layer keeps repro-serve
        # responses bit-identical to this file on the wire.
        from repro.serve.protocol import dump_result_json

        with open(args.result_out, "w") as fh:
            fh.write(dump_result_json(result))
        print(f"result: -> {args.result_out}")

    print(result.summary())
    if spec.chaos is not None:
        injected = {
            key[len("chaos.") :]: int(value)
            for key, value in sorted(result.extras.items())
            if key.startswith("chaos.")
        }
        print(
            "  chaos: "
            + ", ".join(f"{kind}={count}" for kind, count in injected.items())
        )
    if args.timeline:
        print()
        print(
            obs_mod.render_batches(
                result.batch_stats.records,
                tracer=obs.tracer if obs is not None else None,
            )
        )
    if obs is not None:
        if args.report:
            print()
            print(obs.report())
        if args.trace_out:
            path = obs_mod.write_chrome_trace(obs.tracer, args.trace_out)
            dropped = (
                f" ({obs.tracer.dropped:,} events dropped beyond the ring)"
                if obs.tracer.dropped
                else ""
            )
            print(
                f"trace: {len(obs.tracer.events):,} events -> {path}{dropped}"
            )
        if args.metrics_out:
            path = obs_mod.write_metrics(obs.metrics, args.metrics_out)
            print(f"metrics: {len(obs.metrics)} series -> {path}")
        if obs.analytics is not None and obs.analytics.runs:
            runs = obs.analytics.runs
            report = obs_mod.build_report(
                [obs_mod.analyze_run(run, system=args.system) for run in runs]
            )
            print()
            print(obs_mod.render_analysis(report))
            if args.analytics_out:
                with open(args.analytics_out, "w") as fh:
                    json.dump(report, fh, indent=2)
                    fh.write("\n")
                print(f"analysis: -> {args.analytics_out}")
            if args.features_out:
                path = obs_mod.write_features(runs, args.features_out)
                total = sum(len(run.batches) for run in runs)
                print(f"features: {total} batches -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
