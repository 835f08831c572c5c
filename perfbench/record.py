"""Record the reference results every benchmark output is checked against.

Usage, from the repository root::

    python3 perfbench/record.py

Runs every sweep cell and every cell the serve stream can ask for,
serially and uncached,
and writes ``perfbench/reference.json``: each cell's result digest,
event and batch counts and host time, plus provenance (commit, Python,
NumPy, platform, CPU count).  Re-record only when a change deliberately
alters simulated results; a speed-only change must reproduce every
digest bit for bit.

A sweep cell that fails or runs past ``SWEEP_BUDGET_S`` aborts the
recording (it is a thrash cliff and must leave its list first).  A
serve-pool cell that fails or runs past ``SERVE_BUDGET_S`` is left out
of the pool.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cells as C  # noqa: E402
from ledger import result_digest  # noqa: E402

SWEEP_BUDGET_S = 20.0
SERVE_BUDGET_S = 3.0


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def provenance() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def record_cell(cell, budget: float):
    from repro.experiments.common import is_failure, run_cells

    start = time.perf_counter()
    [result] = run_cells(
        [cell.spec(wall_budget_seconds=budget)],
        use_cache=False,
        on_error="keep-going",
    )
    host_s = time.perf_counter() - start
    if is_failure(result):
        return None, host_s
    return {
        "digest": result_digest(result),
        "events": result.events_processed,
        "batches": result.batch_stats.num_batches,
        "host_s": round(host_s, 3),
    }, host_s


def main() -> int:
    budgets: dict[C.Cell, float] = {}
    for grid, seeds in ((C.SERVE_TINY, C.SERVE_SEEDS), (C.SERVE_SMALL, C.SERVE_SMALL_SEEDS)):
        for seed in range(seeds):
            for cell in C.cells(grid, seed):
                budgets[cell] = SERVE_BUDGET_S
    for cell in C.cells(C.OVERSUB + C.ADEQUATE + C.CHECKPOINTED, C.SWEEP_SEED):
        budgets[cell] = SWEEP_BUDGET_S
    reference: dict[str, dict] = {}
    cliffs = []
    for cell in sorted(budgets, key=lambda c: (c.seed, c.key)):
        budget = budgets[cell]
        ref, host_s = record_cell(cell, budget)
        if ref is None and budget == SWEEP_BUDGET_S:
            cliffs.append(cell.key)
        if ref is not None:
            reference[cell.key] = ref
        print(f"{cell.key:45s} {host_s:7.3f} s {'ok' if ref else 'DROPPED'}")
    if cliffs:
        print(f"sweep cells over budget (remove them): {cliffs}", file=sys.stderr)
        return 1
    C.REFERENCE_FILE.write_text(
        json.dumps(
            {"provenance": provenance(), "cells": reference},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(reference)} cells to {C.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
