"""Transaction profiler: wall-clock attribution per model component.

Answers "where does the *host* time of a simulation go?" — not simulated
cycles (the tracer's job) but real seconds, attributed to the model
components the paper's mechanisms live in: warp issue, fault raise, batch
preprocessing, prefetch expansion, page-table translation, page arrival,
eviction, and warp wake-up.  The attribution is *exclusive* (self time): a
component's total excludes any time spent inside another profiled
component it calls, so the numbers sum to at most the run's wall time and
the remainder is the un-profiled substrate (event loop, scheduling).

The profiler attaches to a built-but-not-yet-run
:class:`~repro.simulator.GpuUvmSimulator` by wrapping the relevant bound
methods in place; :meth:`detach` restores them.  Wrapping costs two
``perf_counter_ns`` calls per entered component, which is far too slow to
leave on in production — this is a *diagnosis* tool (see
``scripts/tprof.py`` and ``docs/performance.md``), not an always-on
metric source.

Usage::

    sim = GpuUvmSimulator(workload, config)
    prof = ComponentProfiler()
    prof.attach(sim)
    result = sim.run()
    prof.detach()
    print(prof.render())
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: Component -> list of (owner attribute path, method name) wrap targets.
#: Paths are resolved against the simulator instance at attach time;
#: missing targets are skipped (``prefetcher.expand`` is a no-op object
#: for NoPrefetcher but still wrappable).
COMPONENTS: tuple[tuple[str, str, str], ...] = (
    ("warp.issue", "", "_execute_op"),
    # The wake callback must be wrapped where the runtime *stores* it (an
    # instance attribute on UvmRuntime), not on the simulator: the
    # runtime calls its stored reference, not sim._wake_warps.
    ("warp.wake", "runtime", "wake_warps"),
    ("fault.raise", "runtime", "raise_fault"),
    ("batch.preprocess", "runtime", "_begin_batch"),
    ("prefetch.expand", "runtime.prefetcher", "expand"),
    ("pt.translate", "mmu", "translate"),
    ("pt.translate", "mmu", "translate_after_l1_miss"),
    ("pt.walk", "mmu.walker", "walk"),
    ("cache.access", "caches", "access_lines"),
    ("page.arrival", "runtime", "_page_arrived"),
    ("evict", "runtime", "_plan_evictions"),
    ("evict", "runtime", "_evict_one"),
)


class ComponentProfiler:
    """Exclusive wall-time attribution across the model's hot components."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # Attribution stack: [component name, resume timestamp].  The top
        # frame is the component currently being charged.
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.wall_ns: int = 0
        self._run_start: int | None = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> "ComponentProfiler":
        """Wrap ``sim``'s hot methods in place; returns self for chaining."""
        if self._restore:
            raise RuntimeError("profiler is already attached")
        for component, path, method in COMPONENTS:
            owner = sim
            try:
                for part in path.split("."):
                    if part:
                        owner = getattr(owner, part)
                fn = getattr(owner, method)
            except AttributeError:
                continue
            if not callable(fn):  # e.g. an unset callback slot
                continue
            self._wrap(owner, method, fn, component)
        # Bracket the whole run so `render` can report the un-profiled
        # remainder without the caller timing anything.
        run = sim.run

        @functools.wraps(run)
        def timed_run(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return run(*args, **kwargs)
            finally:
                self.wall_ns += time.perf_counter_ns() - start

        sim.run = timed_run
        self._restore.append((sim, "run", run, False))
        return self

    def _wrap(self, owner, method: str, fn, component: str) -> None:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = clock()
            if stack:
                top = stack[-1]
                self_ns[top[0]] += now - top[1]
            frame = [component, now]
            stack.append(frame)
            calls[component] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self_ns[component] += end - frame[1]
                stack.pop()
                if stack:
                    stack[-1][1] = end

        # Distinguish instance-level originals (runtime callback slots like
        # ``wake_warps``) from class-level methods shadowed by the wrapper:
        # the former must be *reassigned* on detach, the latter un-shadowed.
        was_instance = method in getattr(owner, "__dict__", {})
        setattr(owner, method, wrapper)
        self._restore.append((owner, method, fn, was_instance))

    def detach(self) -> None:
        """Restore every wrapped method (idempotent)."""
        for owner, method, fn, was_instance in reversed(self._restore):
            if was_instance:
                setattr(owner, method, fn)
                continue
            # The wrapper lives in the instance dict, shadowing the class
            # attribute; removing it restores the original method.
            try:
                delattr(owner, method)
            except AttributeError:
                setattr(owner, method, fn)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def attribution(self, top: int | None = None) -> dict[str, dict[str, float]]:
        """Per-component {seconds, calls, share}; shares are of wall time.

        ``top`` keeps only the N hottest components; the tail is folded
        into a ``(below top-N)`` row so the table still sums to the same
        total.  The ``(engine/other)`` remainder row is always kept.
        """
        wall = self.wall_ns or sum(self.self_ns.values()) or 1
        ranked = sorted(
            self.self_ns, key=self.self_ns.__getitem__, reverse=True
        )
        kept = ranked if top is None else ranked[: max(0, top)]
        tail = [] if top is None else ranked[max(0, top) :]
        out = {}
        for component in kept:
            ns = self.self_ns[component]
            out[component] = {
                "seconds": ns / 1e9,
                "calls": self.calls[component],
                "share": ns / wall,
            }
        if tail:
            tail_ns = sum(self.self_ns[c] for c in tail)
            out[f"(below top-{top})"] = {
                "seconds": tail_ns / 1e9,
                "calls": sum(self.calls[c] for c in tail),
                "share": tail_ns / wall,
            }
        attributed = sum(self.self_ns.values())
        if self.wall_ns:
            out["(engine/other)"] = {
                "seconds": max(0, self.wall_ns - attributed) / 1e9,
                "calls": 0,
                "share": max(0, self.wall_ns - attributed) / wall,
            }
        return out

    def to_metrics(self, registry) -> None:
        """Export the attribution as gauges into an obs MetricRegistry."""
        for component, row in self.attribution().items():
            registry.gauge("profile.self_seconds", component=component).set(
                row["seconds"]
            )
            if row["calls"]:
                registry.gauge("profile.calls", component=component).set(
                    row["calls"]
                )

    def render(self, top: int | None = None) -> str:
        """Human-readable attribution table, hottest component first."""
        rows = self.attribution(top=top)
        if not rows:
            return "no profiled components were entered"
        lines = [
            f"{'component':<20} {'self time':>12} {'share':>7} {'calls':>10} {'per call':>10}"
        ]
        for component, row in rows.items():
            per_call = (
                f"{row['seconds'] / row['calls'] * 1e6:9.1f}u"
                if row["calls"]
                else "         -"
            )
            lines.append(
                f"{component:<20} {row['seconds']:10.4f} s "
                f"{row['share']:6.1%} {row['calls']:>10,} {per_call:>10}"
            )
        if self.wall_ns:
            lines.append(f"{'wall total':<20} {self.wall_ns / 1e9:10.4f} s")
        return "\n".join(lines)


def profile_simulation(workload, config, **run_kwargs):
    """One-call helper: build, profile, and run a simulation.

    Returns ``(SimulationResult, ComponentProfiler)``.  Used by
    ``scripts/tprof.py`` and the profiler smoke test.
    """
    from repro.simulator import GpuUvmSimulator

    sim = GpuUvmSimulator(workload, config)
    prof = ComponentProfiler().attach(sim)
    try:
        result = sim.run(**run_kwargs)
    finally:
        prof.detach()
    return result, prof
