#!/usr/bin/env python
"""A/B two checkouts on the layer-ledger benchmark and write BENCH_perf.json.

Runs ``perfbench/run.py`` from each checkout in alternating pairs (the
side that goes first swaps every pair, so slow drift of a shared host
lands on both sides), then one traced round per side, and writes the
``wall_s`` and ``setup_s`` runs, medians and quartiles per side with
their per-pair win counts, the ``peak_rss_mb`` medians, selected
per-layer ledger figures, and provenance (both commits, nproc, Python,
NumPy).

Usage (``base`` is e.g. a ``git archive`` of the parent commit)::

    python3 scripts/bench_ab.py --base ../parent --head . \\
        --workloads oversub adequate checkpointed serve --pairs 10 --seed 11 \\
        --out BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

#: End-to-end timings recorded run by run, with quartiles and per-pair
#: wins.
TIMED = ("wall_s", "setup_s")

#: Per-layer figures recorded from each side's traced round.
LEDGER = (
    "workloads.build_s",
    "sim.self_s",
    "gpu.issue.self_s",
    "uvm.prefetch.self_s",
    "uvm.evict.self_s",
    "sim.events",
    "uvm.evict.calls",
    "uvm.batches",
    "gpu.issue.calls",
    "uvm.premature_eviction_rate",
    "checkpoint.writes",
    "checkpoint.mb",
    "checkpoint.write_ms.p50",
    "checkpoint.restore_ms.p50",
    "host.calibration_ms",
)


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``; returns its final JSON line."""
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{checkout}: {workload} failed its output checks")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def commit(checkout: str, given: str | None) -> str:
    if given:
        return given
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout,
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout measured as 'base'")
    parser.add_argument("--head", required=True, help="checkout measured as 'head'")
    parser.add_argument("--base-commit", help="commit of --base (default: git rev-parse)")
    parser.add_argument("--head-commit", help="commit of --head (default: git rev-parse)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy

    sides = {"base": args.base, "head": args.head}
    report = {
        "benchmark": "perfbench/run.py",
        "provenance": {
            "base_commit": commit(args.base, args.base_commit),
            "head_commit": commit(args.head, args.head_commit),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
        },
        "workloads": {},
    }
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(
                    run(sides[side], workload, args.seed, args.seconds, 0)
                )
            print(
                f"{workload} pair {i + 1}: base {runs['base'][-1]['wall_s']:.3f} s, "
                f"head {runs['head'][-1]['wall_s']:.3f} s",
                file=sys.stderr,
            )
        timed = {
            metric: {side: [r[metric] for r in runs[side]] for side in sides}
            for metric in TIMED
        }
        entry = {
            "end_to_end": {
                **{
                    metric: {side: quartiles(timed[metric][side]) for side in sides}
                    for metric in TIMED
                },
                "peak_rss_mb": {
                    side: statistics.median(r["peak_rss_mb"] for r in runs[side])
                    for side in sides
                },
            },
            "head_wins": {
                metric: sum(h < b for b, h in zip(by_side["base"], by_side["head"]))
                for metric, by_side in timed.items()
            },
        }
        traced = {
            side: run(sides[side], workload, args.seed, args.seconds, 1)
            for side in sides
        }
        entry["per_layer"] = {
            name: {side: traced[side][name] for side in sides} for name in LEDGER
        }
        report["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
