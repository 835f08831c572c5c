#!/usr/bin/env python
"""Line sampler: where a sweep workload's host time goes, line by line.

Runs a round of a perfbench sweep's cells (``oversub`` or
``adequate``) in this process, while a sampler thread reads the main
thread's frame every ``--interval-ms`` through
``sys._current_frames()``.  Stdlib only.  One unsampled round runs
first, so the per-op tuples each kernel trace caches on its first run
(``kernel_derived``) are not sampled: the benchmark's ``wall_s`` takes
each cell's median over several rounds, which leaves them out too.  It
prints

* per-function shares: the innermost Python frame of each sample, so a
  builtin (``deque.append``, ``OrderedDict.move_to_end``) is charged to
  the function that called it;
* per-line shares of the warp issue loop
  (``GpuUvmSimulator._execute_op``): the line its frame was on whenever
  it was on the stack, callees included.

Samples lean towards call sites.  The sampler can only run when the
main thread gives up the GIL, which it does at a function call or a
loop's back edge, so a line that calls something (a builtin method, a
Python function) collects more samples than its share of the time, and
straight-line arithmetic collects fewer.  Compare shares between two
versions of the code; do not read them as exact times.

Usage::

    PYTHONPATH=src python scripts/lineprof.py                    # adequate
    PYTHONPATH=src python scripts/lineprof.py --workload oversub --top 15
"""

from __future__ import annotations

import argparse
import collections
import linecache
import pathlib
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The sampled function whose lines get their own table.
HOT = "_execute_op"


def sweep_cells(workload: str) -> list:
    """The sweep's cells, from ``perfbench/cells.py``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import cells as C
    finally:
        sys.path.pop(0)
    grid = {"oversub": C.OVERSUB, "adequate": C.ADEQUATE}[workload]
    return C.cells(grid, C.SWEEP_SEED)


class Sampler(threading.Thread):
    """Reads one thread's innermost frame every ``interval`` seconds."""

    def __init__(self, target: int, interval: float) -> None:
        super().__init__(daemon=True)
        self.target = target
        self.interval = interval
        self.stop_flag = threading.Event()
        self.samples = 0
        self.functions: collections.Counter = collections.Counter()
        self.lines: collections.Counter = collections.Counter()

    def run(self) -> None:
        while not self.stop_flag.is_set():
            time.sleep(self.interval)
            frame = sys._current_frames().get(self.target)
            if frame is None:
                continue
            self.samples += 1
            code = frame.f_code
            self.functions[(code.co_filename, code.co_name)] += 1
            while frame is not None:
                if frame.f_code.co_name == HOT:
                    if frame.f_lineno is not None:
                        self.lines[(frame.f_code.co_filename, frame.f_lineno)] += 1
                    break
                frame = frame.f_back


def short(path: str) -> str:
    """A source path relative to the package root, when it is in it."""
    marker = "/src/"
    return path.split(marker, 1)[1] if marker in path else pathlib.Path(path).name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("oversub", "adequate"), default="adequate")
    parser.add_argument(
        "--interval-ms", type=float, default=0.3,
        help="sampling period in milliseconds (default 0.3)",
    )
    parser.add_argument("--top", type=int, default=12, help="rows per table (default 12)")
    args = parser.parse_args(argv)

    from repro import GpuUvmSimulator, systems
    from repro.workloads import registry

    cells = sweep_cells(args.workload)
    runs = []
    for cell in cells:
        workload = registry.build_workload(cell.workload, scale=cell.scale, seed=cell.seed)
        runs.append((workload, systems.by_name(cell.preset).configure(workload, ratio=cell.ratio)))
    for workload, config in runs:
        GpuUvmSimulator(workload, config).run()

    interval = args.interval_ms / 1000
    sampler = Sampler(threading.get_ident(), interval)
    # The sampler waits for the GIL; a switch interval as short as the
    # sampling period lets it in on time.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    sampler.start()
    start = time.perf_counter()
    try:
        for workload, config in runs:
            GpuUvmSimulator(workload, config).run()
    finally:
        wall = time.perf_counter() - start
        sampler.stop_flag.set()
        sampler.join()
        sys.setswitchinterval(switch)

    total = sampler.samples or 1
    print(
        f"{args.workload}: {len(cells)} cells in {wall:.2f} s, "
        f"{sampler.samples} samples every {args.interval_ms} ms"
    )
    print("\nfunction (innermost frame)                              share")
    for (path, name), count in sampler.functions.most_common(args.top):
        print(f"  {short(path) + ':' + name:<52} {count / total:6.1%}")
    print(f"\n{HOT} line (callees included)                       share")
    for (path, lineno), count in sampler.lines.most_common(args.top):
        text = linecache.getline(path, lineno).strip()
        print(f"  {lineno:5d}  {text[:46]:<46} {count / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
