#!/usr/bin/env python
"""Opcode probe: Python bytecodes interpreted per engine event, by function.

Runs one perfbench sweep cell in this process with the engine watchdog
armed the way the benchmark arms it (a wall budget, so the wall-clock
sampler is live), and counts every bytecode the interpreter executes
during ``GpuUvmSimulator.run``, per function and source line, through
``sys.settrace`` opcode events (which carry ``f_lineno``).  Stdlib
only.  One untraced run goes first, so the per-op tuples a kernel trace
caches on its first run (``kernel_derived``) are not counted: the
benchmark's ``wall_s`` takes each cell's median over several rounds,
which leaves them out too.

Counts are deterministic for a given interpreter version (unlike
timings), so two versions of the code can be compared exactly.  Code
that runs in C (``heapq``, builtin methods) is not counted.  It prints

* opcodes per engine event for each Python function, largest first;
* the **plumbing** subtotal: the event engine itself
  (``repro/sim/engine.py``), the watchdog (``Watchdog`` in
  ``repro/invariants.py``) and the interned events' ``__call__``
  trampolines in ``repro/simulator.py`` -- everything an event costs
  besides the simulation work it fires;
* the **guard** opcodes of each hook family (:data:`GUARD_FAMILIES`):
  what the disabled observability, analytics, robustness and
  checkpoint hooks cost, counted on their own source lines.

``--max-plumbing N`` exits 1 when the plumbing subtotal is above ``N``
opcodes per event.  The off-mode guard gates
(``benchmarks/bench_guard_share.py``) import this module's counter and
family table.

Usage::

    PYTHONPATH=src python scripts/opcount.py                       # UNLIMITED|BFS-TTC|small|1.5
    PYTHONPATH=src python scripts/opcount.py --cell 'TO+UE|KCORE|tiny|0.5' --max-plumbing 88
"""

from __future__ import annotations

import argparse
import ast
import collections
import functools
import linecache
import pathlib
import sys

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


#: Hook families and the names their guards test.  A source line is a
#: guard of a family when it tests one of the family's names (the test
#: of an ``if``, ``elif``, ``while`` or conditional expression) or only
#: stores into one (``an = self._an``; the engine's same-cycle
#: ``streak`` bookkeeping, which exists for the watchdog).  With every
#: hook off, those lines are all a family costs.
GUARD_FAMILIES: dict[str, frozenset[str]] = {
    "obs": frozenset({"obs", "count_event"}),
    "analytics": frozenset({"an", "_an", "analytics"}),
    "robustness": frozenset({"chaos", "invariants", "inv", "validator", "streak"}),
    "checkpoint": frozenset({"checkpoint_due"}),
}


def _names(node: ast.AST) -> set[str]:
    """Every variable and attribute name an expression mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _stored(target: ast.AST) -> str | None:
    """The name an assignment target binds (``x`` or ``obj.x``)."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


@functools.lru_cache(maxsize=None)
def guard_lines(filename: str) -> dict[int, tuple[str, ...]]:
    """Guard line numbers of one source file, each with its families."""
    try:
        tree = ast.parse("".join(linecache.getlines(filename)))
    except (SyntaxError, ValueError):
        return {}
    marked: dict[int, set[str]] = collections.defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            span = node.test
            names = _names(span)
            families = [f for f, hooks in GUARD_FAMILIES.items() if names & hooks]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            span = node
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = {_stored(target) for target in targets}
            families = [f for f, hooks in GUARD_FAMILIES.items() if stored <= hooks]
        else:
            continue
        for line in range(span.lineno, span.end_lineno + 1):
            marked[line].update(families)
    return {line: tuple(sorted(fams)) for line, fams in marked.items() if fams}


def _trace_opcodes(frame, event, arg) -> None:
    frame.f_trace_opcodes = True


def _nothing() -> None:
    pass


class OpcodeCounter:
    """Counts executed bytecodes per code object and line while
    installed; :attr:`total`, :meth:`by_function` and
    :meth:`guard_opcodes` sum them."""

    def __init__(self) -> None:
        #: ``by_line[code][lineno]``: opcodes executed on each line.
        self.by_line: dict = {}
        self._tracers: dict = {}

    def _tracer_for(self, code):
        counts = self.by_line[code] = collections.Counter()

        def local(frame, event, arg):
            if event == "opcode":
                counts[frame.f_lineno] += 1
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
        # CPython 3.12 delivers no opcode events until a frame of an
        # earlier tracing session has turned them on: prime one.
        sys.settrace(_trace_opcodes)
        _nothing()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)

    @property
    def total(self) -> int:
        return sum(sum(counts.values()) for counts in self.by_line.values())

    def by_function(self) -> collections.Counter:
        return collections.Counter(
            {code: sum(counts.values()) for code, counts in self.by_line.items()}
        )

    def guard_opcodes(self) -> dict[str, int]:
        """Opcodes executed on each family's guard lines."""
        guards = dict.fromkeys(GUARD_FAMILIES, 0)
        for code, counts in self.by_line.items():
            marked = guard_lines(code.co_filename)
            for line, count in counts.items():
                for family in marked.get(line, ()):
                    guards[family] += count
        return guards


def count_cell(cell: str, wall_budget_seconds: float | None = None):
    """``(counter, engine events)`` for one ``PRESET|WORKLOAD|SCALE|RATIO``
    cell (graph seed 0), counted on its second run in this process."""
    from repro import GpuUvmSimulator, systems
    from repro.workloads import registry

    preset, name, scale, ratio = cell.split("|")
    workload = registry.build_workload(name, scale=scale, seed=0)
    config = systems.by_name(preset).configure(workload, ratio=float(ratio))
    GpuUvmSimulator(workload, config).run(wall_budget_seconds=wall_budget_seconds)

    sim = GpuUvmSimulator(workload, config)
    with OpcodeCounter() as counter:
        result = sim.run(wall_budget_seconds=wall_budget_seconds)
    return counter, result.events_processed


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

    counter, events = count_cell(args.cell, wall_budget_seconds=WALL_BUDGET_S)
    rows = sorted(
        ((count, code) for code, count in counter.by_function().items()),
        key=lambda row: -row[0],
    )
    total = counter.total
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
    print("\nguards                                          per event    share")
    for family, count in counter.guard_opcodes().items():
        print(f"  {family:<46} {count / events:8.2f} {count / total:8.2%}")
    if args.max_plumbing is not None and plumbing / events > args.max_plumbing:
        print(
            f"plumbing {plumbing / events:.1f} opcodes per event exceeds "
            f"{args.max_plumbing:g}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
