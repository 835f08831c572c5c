#!/usr/bin/env python
"""Gate one perfbench run's end-to-end timings against the committed ledger.

Reads the result line of a ``perfbench/run.py`` run and fails when its
``setup_s`` or ``wall_s`` is slower than ``BENCH_perf.json``'s ``head``
median for that workload by more than ``BENCHMARK.json``'s bound for the
metric.  Being faster never fails.  Both figures are in reference
seconds (perfbench scales host seconds by a calibration loop), so a
different host moves them less than raw seconds.

Usage::

    python3 perfbench/run.py --workload oversub --seconds 3 --trace 0 \\
        | tail -n 1 > run.json
    python3 scripts/ledger_gate.py oversub run.json
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The end-to-end timings the gate reads.
GATED = ("setup_s", "wall_s")


def committed_head(entry: dict, metric: str) -> float:
    """``metric``'s ``head`` median in one ``BENCH_perf.json`` entry."""
    return entry["end_to_end"][metric]["head"]["median"]


def check(workload: str, run: dict, bench: dict, declared: dict) -> list[str]:
    """One line per gated metric; a line starting ``FAIL`` is over its
    bound."""
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    entry = bench["workloads"][workload]
    lines = []
    for metric in GATED:
        committed = committed_head(entry, metric)
        limit = committed * (1 + bounds[metric])
        value = run["metrics"][metric]["value"]
        status = "FAIL" if value > limit else "ok"
        lines.append(
            f"{status} {workload} {metric}: {value:.3f} "
            f"(committed {committed:.3f}, limit {limit:.3f})"
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    workload, path = argv
    run = json.loads(pathlib.Path(path).read_text().strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCH_perf.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = check(workload, run, bench, declared)
    print("\n".join(lines))
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
