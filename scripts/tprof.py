#!/usr/bin/env python
"""Transaction profiler CLI: wall-time attribution for one simulation.

Runs a single (system, workload) cell under the component profiler
(:class:`repro.obs.ComponentProfiler`) and prints where the host time
went — warp issue, fault raise, batch preprocess, prefetch expansion,
page-table translation/walks, page arrival, eviction — as exclusive
(self) time, so the rows sum to at most the wall total and the remainder
is the event-loop substrate.

Usage::

    PYTHONPATH=src python scripts/tprof.py                          # TO+UE / BFS-TTC
    PYTHONPATH=src python scripts/tprof.py --system BASELINE --workload KCORE
    PYTHONPATH=src python scripts/tprof.py --json prof.json

Note the simulator inlines the L1 TLB probe and the data-cache access
into the issue loop (and calls the TLB-miss path through a pre-bound
reference), so that work is attributed to ``warp.issue`` rather than
``pt.translate`` / ``cache.access`` (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import SCALES, build_workload, systems, workload_names
from repro.obs import ComponentProfiler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--system", default="TO+UE",
        help="system preset name (default: TO+UE)",
    )
    parser.add_argument(
        "--workload", default="BFS-TTC", choices=sorted(workload_names()),
        help="workload trace (default: BFS-TTC)",
    )
    parser.add_argument(
        "--scale", default="tiny", choices=sorted(SCALES),
        help="workload scale (default: tiny)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ratio", type=float, default=0.5,
        help="memory-to-footprint ratio passed to the preset (default 0.5)",
    )
    parser.add_argument(
        "--json", type=argparse.FileType("w"), metavar="PATH",
        help="also write the attribution as JSON",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help=(
            "show only the N hottest components; the rest fold into one "
            "'(below top-N)' row (applies to the table and --json)"
        ),
    )
    args = parser.parse_args(argv)

    from repro.simulator import GpuUvmSimulator

    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    config = systems.by_name(args.system).configure(workload, ratio=args.ratio)
    sim = GpuUvmSimulator(workload, config)
    prof = ComponentProfiler().attach(sim)
    try:
        result = sim.run()
    finally:
        prof.detach()

    print(
        f"{args.system} / {args.workload} ({args.scale}): "
        f"{result.exec_cycles:,} cycles, "
        f"{result.events_processed:,} events"
    )
    print(prof.render(top=args.top))

    if args.json is not None:
        json.dump(
            {
                "system": args.system,
                "workload": args.workload,
                "scale": args.scale,
                "wall_seconds": prof.wall_ns / 1e9,
                "attribution": prof.attribution(top=args.top),
            },
            args.json,
            indent=1,
            sort_keys=True,
        )
        args.json.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
