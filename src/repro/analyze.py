"""Batch-analytics CLI: ``repro-analyze SYSTEM:WORKLOAD [...]``.

Runs one or more experiment cells with batch-level analytics enabled
(:mod:`repro.obs.analytics`) and prints the bottleneck report — which
stall bucket dominates each cell, how the cycles split per SM, and which
batch is the p99 outlier and why.  The same digest can be written as
versioned JSON (``--json``) and the per-batch feature vectors as
JSONL/CSV (``--features``) for downstream policy work.

Examples::

    repro-analyze BASELINE:BFS-TTC TO_UE:BFS-TTC --scale tiny
    repro-analyze TO_UE:SSSP --json analysis.json --features batches.jsonl
    repro-analyze --validate analysis.json   # CI schema check, no runs

Each cell token is ``SYSTEM:WORKLOAD`` (see :mod:`repro.systems` and
:mod:`repro.workloads.registry` for the names).  Cells run sequentially
in-process under a ``light`` observability session with analytics on.
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

DEFAULT_CELLS = ("BASELINE:BFS-TTC", "TO_UE:BFS-TTC")


def parse_cell(token: str) -> tuple[str, str]:
    """Split a ``SYSTEM:WORKLOAD`` token, validating both halves."""
    system_name, sep, workload_name = token.partition(":")
    if not sep or not system_name or not workload_name:
        raise ReproError(
            "cell must be SYSTEM:WORKLOAD", cell=token
        )
    systems.by_name(system_name)  # raises KeyError on unknown preset
    if workload_name not in workload_names():
        raise ReproError(
            "unknown workload", cell=token, workload=workload_name
        )
    return system_name, workload_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Run experiment cells with batch analytics and report the "
            "dominant stall cause, per-SM attribution, and p99 outliers."
        ),
    )
    parser.add_argument(
        "cells",
        nargs="*",
        default=list(DEFAULT_CELLS),
        metavar="SYSTEM:WORKLOAD",
        help=(
            "cells to analyze (default: "
            + " ".join(DEFAULT_CELLS)
            + ")"
        ),
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
        help="GPU memory as a fraction of the workload footprint",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the analysis report as versioned JSON",
    )
    parser.add_argument(
        "--features",
        metavar="PATH",
        help=(
            "write per-batch feature vectors "
            "(JSONL, or CSV if PATH ends in .csv)"
        ),
    )
    parser.add_argument(
        "--flight-events",
        type=int,
        default=64,
        metavar="N",
        help="flight-recorder ring capacity (default: 64)",
    )
    parser.add_argument(
        "--validate",
        metavar="REPORT",
        default=None,
        help=(
            "validate an existing JSON report against the schema and "
            "exit (no cells are run)"
        ),
    )
    return parser


def analyze_cells(args) -> tuple[dict, list]:
    """Run each cell under its own analytics session; return (report, runs)."""
    cell_records = []
    runs = []
    for token in args.cells:
        system_name, workload_name = parse_cell(token)
        spec = common.RunSpec(
            workload_name,
            preset=systems.by_name(system_name),
            scale=args.scale,
            ratio=args.ratio,
            seed=args.seed,
        ).resolved()
        ob = obs_mod.Observability(
            "light", analytics=True, flight_events=args.flight_events
        )
        previous = obs_mod.install(ob)
        try:
            result = common._simulate_spec(spec)
        finally:
            obs_mod.install(previous)
        run = ob.analytics.runs[-1]
        cell = obs_mod.analyze_run(run, system=system_name)
        cell["scale"] = args.scale
        cell["exec_cycles"] = result.exec_cycles
        cell_records.append(cell)
        runs.append(run)
    return obs_mod.build_report(cell_records), runs


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.validate is not None:
        try:
            report = json.loads(open(args.validate).read())
            obs_mod.validate_report(report)
        except (OSError, ValueError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid analytics report "
            f"({len(report['cells'])} cells)"
        )
        return 0

    try:
        report, runs = analyze_cells(args)
    except (KeyError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Self-check the artifact we are about to publish.
    obs_mod.validate_report(report)
    print(obs_mod.render_analysis(report))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report: {len(report['cells'])} cells -> {args.json}")
    if args.features:
        path = obs_mod.write_features(runs, args.features)
        total = sum(len(run.batches) for run in runs)
        print(f"features: {total} batches -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
