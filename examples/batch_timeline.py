#!/usr/bin/env python3
"""Visualise the batch processing mechanism (the paper's Figure 2).

Runs a simulation under a full observability session and renders the
first few fault batches from its batch records as ASCII lanes: the
GPU-runtime fault-handling window, the migration stream, and — from the
session's trace instants — eviction starts and page arrivals.  Run it
twice — baseline vs. TO+UE — and watch the batches get bigger and fewer
while the eviction marks slide out of the migration stream.

    python examples/batch_timeline.py --workload BFS-TWC
"""

import argparse

from repro import GpuUvmSimulator, build_workload, obs, systems, workload_names
from repro.workloads.registry import SCALES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    parser.add_argument(
        "--workload", default="BFS-TTC", choices=workload_names("irregular")
    )
    parser.add_argument("--batches", type=int, default=6,
                        help="number of batch lanes to draw")
    args = parser.parse_args()

    workload = build_workload(args.workload, scale=args.scale)
    ratio = SCALES[args.scale].half_memory_ratio

    for preset in (systems.BASELINE, systems.TO_UE):
        session = obs.Observability("full")
        config = preset.configure(workload, ratio=ratio)
        result = GpuUvmSimulator(workload, config, obs=session).run()
        print(f"=== {preset.name} ({args.workload}) ===")
        print(
            obs.render_batches(
                result.batch_stats.records,
                tracer=session.tracer,
                max_batches=args.batches,
            )
        )
        print(
            f"totals: {result.batch_stats.num_batches} batches, "
            f"{result.migrated_pages} migrations, "
            f"{result.evicted_pages} evictions, "
            f"exec {result.exec_cycles:,} cycles"
        )
        print()


if __name__ == "__main__":
    main()
