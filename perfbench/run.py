"""Layer-ledger benchmark: one workload per invocation, in a fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload oversub --seed 0 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each one is there):

* ``oversub`` -- cold serial ``run_cells`` sweep at ratio 0.5
* ``adequate`` -- cold serial ``run_cells`` sweep at ratio 1.5
* ``checkpointed`` -- oversub cells cut mid-run and resumed from a checkpoint
* ``serve`` -- a ``repro-serve`` subprocess under a closed-loop client mix

``--trace 0`` runs uninstrumented and reports the end-to-end metrics;
``--trace 1`` reports the per-layer breakdown.  Metric names and units
come from ``BENCHMARK.json``.  Every simulated result is checked against
``perfbench/reference.json`` (and the golden corpus where it covers the
cell); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files live under ``.perfbench-tmp/`` in the working directory
and are removed on exit; the repository's ``.repro-cache/`` is never
touched.  Each invocation runs one workload, so peak RSS and the
experiment layer's module state belong to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("oversub", "adequate", "checkpointed", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Settings inherited from the environment would change what runs.
    for name in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_CACHE_QUOTA_MB", "REPRO_JOBS"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(HERE), str(root / "src")]

    import cells
    import ledger

    checker = ledger.Checker(cells.load_reference())
    clock = ledger.HostClock()
    tmp = root / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.workload == "serve":
            import serveload

            e2e, layers = serveload.run(
                args.seed, args.seconds, bool(args.trace), tmp, checker, clock
            )
        else:
            import sweeps

            e2e, layers = sweeps.run(
                args.workload, args.seed, args.seconds, bool(args.trace), tmp, checker, clock
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    e2e["peak_rss_mb"] = ledger.peak_rss_mb()
    layers["host.calibration_ms"] = statistics.median(clock.loop_s) * 1000

    section, measured = ("per_layer", layers) if args.trace else ("end_to_end", e2e)
    metrics = {}
    for metric in spec[section]:
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name)
        if value is None:
            # Not measured on this workload, or too few samples for the
            # percentile: reported as 0 (per-layer metrics carry no bound).
            if section == "end_to_end":
                checker.fail(f"end-to-end metric {name} was not measured")
            print(f"{name:32s} {'n/a':>16s} {unit}")
            value = 0.0
        else:
            print(f"{name:32s} {value:16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for problem in checker.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
