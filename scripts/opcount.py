#!/usr/bin/env python
"""Opcode probe: Python bytecodes interpreted per engine event, by function.

Runs one perfbench sweep cell in this process with the engine watchdog
armed the way the benchmark arms it (a wall budget, so the wall-clock
sampler is live), and counts every bytecode the interpreter executes
during ``GpuUvmSimulator.run`` through ``sys.settrace`` opcode events.
Stdlib only.  One untraced run goes first, so the per-op tuples a
kernel trace caches on its first run (``kernel_derived``) are not
counted: the benchmark's ``wall_s`` takes each cell's median over
several rounds, which leaves them out too.

Counts are deterministic for a given interpreter version (unlike
timings), so two versions of the code can be compared exactly.  Code
that runs in C (``heapq``, builtin methods) is not counted.  It prints

* opcodes per engine event for each Python function, largest first;
* the **plumbing** subtotal: the event engine itself
  (``repro/sim/engine.py``), the watchdog (``Watchdog`` in
  ``repro/invariants.py``) and the interned events' ``__call__``
  trampolines in ``repro/simulator.py`` -- everything an event costs
  besides the simulation work it fires.

``--max-plumbing N`` exits 1 when the plumbing subtotal is above ``N``
opcodes per event.

Usage::

    PYTHONPATH=src python scripts/opcount.py                       # UNLIMITED|BFS-TTC|small|1.5
    PYTHONPATH=src python scripts/opcount.py --cell 'TO+UE|KCORE|tiny|0.5' --max-plumbing 70
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The wall budget the benchmark gives a cell (``perfbench/sweeps.py``
#: hands each cell at most this many seconds); only its presence
#: matters here -- it arms the watchdog's wall-clock sampler.
WALL_BUDGET_S = 120.0


def is_plumbing(filename: str, qualname: str) -> bool:
    """Whether a function is engine plumbing rather than simulation."""
    path = filename.replace("\\", "/")
    if path.endswith("repro/sim/engine.py"):
        return True
    if path.endswith("repro/invariants.py"):
        return qualname.startswith("Watchdog.")
    if path.endswith("repro/simulator.py"):
        return qualname.endswith("Event.__call__")
    return False


class OpcodeCounter:
    """Counts executed bytecodes per code object while installed."""

    def __init__(self) -> None:
        self.counts: collections.Counter = collections.Counter()
        self._tracers: dict = {}

    def _tracer_for(self, code):
        counts = self.counts

        def local(frame, event, arg):
            if event == "opcode":
                counts[code] += 1
            return local

        return local

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        tracer = self._tracers.get(code)
        if tracer is None:
            tracer = self._tracers[code] = self._tracer_for(code)
        return tracer

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def short(path: str) -> str:
    """A source path relative to the package root, when it is in it."""
    marker = "/src/"
    return path.split(marker, 1)[1] if marker in path else pathlib.Path(path).name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--cell", default="UNLIMITED|BFS-TTC|small|1.5",
        help="PRESET|WORKLOAD|SCALE|RATIO, graph seed 0 (default %(default)s)",
    )
    parser.add_argument("--top", type=int, default=15, help="rows to print (default 15)")
    parser.add_argument(
        "--max-plumbing", type=float, default=None,
        help="exit 1 when plumbing exceeds this many opcodes per event",
    )
    args = parser.parse_args(argv)

    from repro import GpuUvmSimulator, systems
    from repro.workloads import registry

    preset, name, scale, ratio = args.cell.split("|")
    workload = registry.build_workload(name, scale=scale, seed=0)
    config = systems.by_name(preset).configure(workload, ratio=float(ratio))
    GpuUvmSimulator(workload, config).run(wall_budget_seconds=WALL_BUDGET_S)

    sim = GpuUvmSimulator(workload, config)
    with OpcodeCounter() as counter:
        result = sim.run(wall_budget_seconds=WALL_BUDGET_S)
    events = result.events_processed

    rows = sorted(
        ((count, code) for code, count in counter.counts.items()),
        key=lambda row: -row[0],
    )
    total = sum(count for count, _ in rows)
    plumbing = 0
    plumbing_rows = []
    for count, code in rows:
        if is_plumbing(code.co_filename, code.co_qualname):
            plumbing += count
            plumbing_rows.append((count, code))

    print(f"{args.cell}: {events:,} engine events, {total / events:.1f} opcodes per event")
    print("\nfunction                                                  per event")
    for count, code in rows[: args.top]:
        label = f"{short(code.co_filename)}:{code.co_qualname}"
        print(f"  {label:<56} {count / events:8.1f}")
    print("\nplumbing                                                  per event")
    for count, code in plumbing_rows:
        label = f"{short(code.co_filename)}:{code.co_qualname}"
        print(f"  {label:<56} {count / events:8.1f}")
    print(f"  {'subtotal':<56} {plumbing / events:8.1f}")
    if args.max_plumbing is not None and plumbing / events > args.max_plumbing:
        print(
            f"plumbing {plumbing / events:.1f} opcodes per event exceeds "
            f"{args.max_plumbing:g}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
