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
from pathlib import Path

from repro import obs as obs_mod
from repro import systems
from repro.chaos import parse_chaos_spec
from repro.errors import ReproError
from repro.simulator import GpuUvmSimulator
from repro.workloads.registry import SCALES, build_workload, workload_names


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
            "(default: the scale's calibrated 50%% oversubscription)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="abort the run after this many engine events",
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
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help=(
            "fault-injection spec, e.g. "
            "'dma-stall:prob=0.2;drop-fault:prob=0.05' "
            "(see repro.chaos for the grammar and injector kinds)"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the chaos RNG streams (default: 0)",
    )
    parser.add_argument(
        "--invariants",
        action="store_true",
        help=(
            "validate memory/page-table consistency at batch boundaries "
            "and quiescence (repro.invariants)"
        ),
    )
    parser.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "abort with a stall diagnosis if the run exceeds this wall "
            "time (with --checkpoint-dir the aborted run checkpoints "
            "first, so --resume can continue it)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "write resumable whole-simulation checkpoints into DIR at "
            "batch boundaries and on watchdog stalls (repro.checkpoint)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N completed batches (default: 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue from the checkpoint a previous invocation left in "
            "--checkpoint-dir (falls back to a fresh run if the file is "
            "missing or unusable)"
        ),
    )
    parser.add_argument(
        "--result-out",
        metavar="PATH",
        help="write the SimulationResult as JSON",
    )
    return parser


def _checkpoint_basename(args: argparse.Namespace) -> str:
    """Stable per-invocation checkpoint name: the same (workload, scale,
    system, seed) resumes its own file and nothing else's."""
    return (
        f"{args.workload.upper()}-{args.scale}-{args.system.upper()}"
        f"-s{args.seed}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.checkpoint_every <= 0:
        parser.error("--checkpoint-every must be positive")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")

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
        workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
        preset = systems.by_name(args.system)
        kwargs = {} if args.ratio is None else {"ratio": args.ratio}
        if args.chaos is not None:
            kwargs["chaos"] = parse_chaos_spec(args.chaos, seed=args.chaos_seed)
        config = preset.configure(
            workload, check_invariants=args.invariants, **kwargs
        )
    except (KeyError, ReproError) as exc:
        parser.error(str(exc).strip('"'))

    obs = (
        obs_mod.Observability(
            args.obs,
            max_trace_events=args.trace_obs_events,
            analytics=analytics,
        )
        if args.obs != "off"
        else None
    )

    checkpoint_file = None
    if args.checkpoint_dir:
        checkpoint_file = (
            Path(args.checkpoint_dir) / f"{_checkpoint_basename(args)}.ckpt"
        )

    sim = None
    resumed = False
    if args.resume and checkpoint_file is not None and checkpoint_file.exists():
        from repro.checkpoint import try_load

        checkpoint = try_load(checkpoint_file)
        if checkpoint is not None:
            sim = checkpoint.restore()
            resumed = True
            # The restored simulator carries its original instrumentation
            # (pickled with it); report from that, not this invocation's.
            obs = sim.obs
            print(
                f"resuming {checkpoint_file} "
                f"(cycle {sim.engine.now:,}, "
                f"batch {sim.runtime.batch_stats.num_batches})"
            )
    if sim is None:
        sim = GpuUvmSimulator(workload, config, obs=obs)
    if checkpoint_file is not None:
        sim.enable_checkpoints(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            basename=checkpoint_file.stem,
        )

    try:
        if resumed:
            result = sim.resume(
                max_events=args.max_events,
                wall_budget_seconds=args.wall_budget,
            )
        else:
            result = sim.run(
                max_events=args.max_events,
                wall_budget_seconds=args.wall_budget,
            )
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
            print(f"flight recorder: {len(dump['events'])} events -> {path}")
        return 1

    if checkpoint_file is not None:
        # The run completed: a leftover mid-run checkpoint must not be
        # resumed by a later invocation.
        try:
            checkpoint_file.unlink()
        except OSError:
            pass
    if args.result_out:
        # One serialiser shared with the serving layer keeps repro-serve
        # responses bit-identical to this file on the wire.
        from repro.serve.protocol import dump_result_json

        with open(args.result_out, "w") as fh:
            fh.write(dump_result_json(result))
        print(f"result: -> {args.result_out}")

    print(result.summary())
    if config.chaos is not None:
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
            if str(args.metrics_out).endswith(".csv"):
                path = obs_mod.write_metrics_csv(obs.metrics, args.metrics_out)
            else:
                path = obs_mod.write_metrics_json(obs.metrics, args.metrics_out)
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
                if str(args.features_out).endswith(".csv"):
                    path = obs_mod.write_features_csv(runs, args.features_out)
                else:
                    path = obs_mod.write_features_jsonl(runs, args.features_out)
                total = sum(len(run.batches) for run in runs)
                print(f"features: {total} batches -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
