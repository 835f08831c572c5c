"""The sweep workloads: ``oversub``, ``adequate`` and ``checkpointed``.

Each repeats one fixed round of cells until the measuring window
closes.  Every round starts from a cold run cache (a fresh directory and
a cleared in-process memo), so every cell simulates.

Under ``--trace 1`` the benchmark's own timers around the run-cache and
checkpoint calls are on for every round, and rounds alternate between
untraced and traced: a traced round attaches a :class:`LayerProfiler`
to each cell's simulator.  The per-layer numbers come from the traced
rounds; the ratio of traced to untraced round time is the tracing
overhead.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
import time
from statistics import median
from contextlib import contextmanager, nullcontext

import repro.checkpoint as checkpoint_io
from repro import GpuUvmSimulator, systems
from repro.errors import ReproError, SimulationError, SimulationStalledError
from repro.experiments import common
from repro.obs.profile import ComponentProfiler
from repro.simulator import SimulationResult
from repro.workloads import registry

import cells as C
from ledger import percentile

#: Wall budget per cell: far above any listed cell (the slowest takes
#: ~1.5 s), so only a regression into a thrash cliff trips it, and it
#: then counts as a failed cell instead of hanging the run.
CELL_BUDGET_S = 30.0
#: Past this many seconds of measuring no further round starts, and
#: budgets shrink so the run still ends well inside three minutes.
HARD_STOP_S = 120.0
#: Checkpoints written per checkpointed cell (interval = batches / this).
CHECKPOINTS_PER_CELL = 8
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Profiler component -> per-layer metric prefix.
LAYERS = {
    "warp.issue": "gpu.issue",
    "warp.wake": "gpu.wake",
    "cache.access": "gpu.cache",
    "pt.translate": "vm.translate",
    "pt.walk": "vm.walk",
    "fault.raise": "uvm.fault_raise",
    "batch.preprocess": "uvm.preprocess",
    "prefetch.expand": "uvm.prefetch",
    "page.arrival": "uvm.arrival",
    "evict": "uvm.evict",
    "uvm.transfer": "uvm.transfer",
}


class LayerProfiler(ComponentProfiler):
    """:class:`ComponentProfiler` plus the PCIe/DMA channel transfers."""

    def attach(self, sim) -> "LayerProfiler":
        super().attach(sim)
        for channel in (sim.pcie.h2d, sim.pcie.d2h):
            self._wrap(channel, "enqueue", channel.enqueue, "uvm.transfer")
        return self


@contextmanager
def timed_call(module, name: str, samples: list, size_of=None):
    """Time every call of ``module.name`` into ``samples`` (ms, MB)."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            ms = (time.perf_counter() - start) * 1000
            samples.append((ms, size_of(*args) if size_of else 0.0))

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


def build_inputs(cells) -> float:
    """Build every workload trace the cells use, from scratch (seconds)."""
    registry._cached_graph.cache_clear()
    registry.build_workload.cache_clear()
    start = time.perf_counter()
    for name, scale, seed in sorted({(c.workload, c.scale, c.seed) for c in cells}):
        registry.build_workload(name, scale=scale, seed=seed)
    return time.perf_counter() - start


class Sweep:
    """One sweep workload's run: set-up, rounds, checks, metrics."""

    def __init__(self, cells, checker, clock, tmp, deadline: float) -> None:
        self.cells = cells
        self.checker = checker
        self.clock = clock
        self.tmp = tmp
        self.deadline = deadline
        self.layer_timers = False
        self.rounds: list[dict] = []

    def budget(self) -> float:
        return max(1.0, min(CELL_BUDGET_S, self.deadline - time.monotonic()))

    # -- one round ------------------------------------------------------
    def run_round(self, traced: bool) -> dict:
        raise NotImplementedError

    def measure(self, seconds: float, trace: bool) -> None:
        """Run rounds until the next would overrun the window."""
        self.layer_timers = trace
        min_rounds = max(3, math.ceil(20 / len(self.cells)))
        start = time.monotonic()
        while True:
            traced = trace and len(self.rounds) % 2 == 1
            stats = self.run_round(traced)
            stats["traced"] = traced
            self.rounds.append(stats)
            elapsed = time.monotonic() - start
            if elapsed > HARD_STOP_S:
                break
            if len(self.rounds) >= min_rounds and elapsed + stats["wall"] > seconds:
                break

    # -- metrics --------------------------------------------------------
    def end_to_end(self) -> dict:
        """``wall_s``: one round, as the sum over cells of each cell's
        median time across untraced rounds, so a burst of host
        contention in one round does not move it."""
        per_cell = zip(*(r["scaled_s"] for r in self.rounds if not r["traced"]))
        return {"wall_s": sum(median(times) for times in per_cell)}

    def per_layer(self) -> dict:
        untraced = [r for r in self.rounds if not r["traced"]]
        traced = [r for r in self.rounds if r["traced"]]
        out = {}
        events = sum(r["events"] for r in untraced)
        out["sim.ns_per_event"] = (
            sum(sum(r["op_s"]) for r in untraced) * 1e9 / events if events else 0.0
        )
        out["sim.events"] = untraced[0]["events"] if untraced else 0
        out["uvm.batches"] = untraced[0]["batches"] if untraced else 0
        out["uvm.premature_eviction_rate"] = (
            untraced[0]["premature"] if untraced else 0.0
        )
        if traced and untraced:
            out["trace.overhead"] = (
                median([sum(r["scaled_s"]) for r in traced])
                / median([sum(r["scaled_s"]) for r in untraced])
                - 1
            )
        out.update(self.layer_metrics(traced))
        return out

    def layer_metrics(self, traced: list[dict]) -> dict:
        return {}

    def check(self, results, path: str, stats: dict) -> None:
        """Check every result and total the round's simulated counts."""
        stats["events"] = stats["batches"] = 0
        premature = []
        for cell, result in zip(self.cells, results):
            self.checker.attempted += 1
            self.checker.check_result(cell, result, path)
            if isinstance(result, SimulationResult):
                stats["events"] += result.events_processed
                stats["batches"] += result.batch_stats.num_batches
                premature.append(result.premature_eviction_rate)
        stats["premature"] = sum(premature) / len(premature) if premature else 0.0


def _mean(rounds, key):
    return sum(r.get(key, 0.0) for r in rounds) / len(rounds) if rounds else 0.0


class CellSweep(Sweep):
    """``oversub`` / ``adequate``: a serial ``run_cells`` sweep."""

    def run_round(self, traced: bool) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        common.set_cache_dir(cache_dir)
        common.clear_run_cache()
        profilers: list[LayerProfiler] = []
        stores: list = []
        if traced:
            common.set_cell_hook(lambda sim: profilers.append(LayerProfiler().attach(sim)))
        results, op_s, scaled_s = [], [], []
        try:
            with timed_call(common, "_disk_store", stores) if self.layer_timers else nullcontext():
                start = time.perf_counter()
                for cell in self.cells:
                    speed = self.clock.speed()
                    begin = time.perf_counter()
                    [result] = common.run_cells(
                        [cell.spec(wall_budget_seconds=self.budget())],
                        on_error="keep-going",
                    )
                    op_s.append(time.perf_counter() - begin)
                    scaled_s.append(op_s[-1] * speed)
                    results.append(result)
                wall = time.perf_counter() - start
        finally:
            common.set_cell_hook(None)
            for prof in profilers:
                prof.detach()
        stats = {"wall": wall, "op_s": op_s, "scaled_s": scaled_s}
        self.check(results, "run_cells", stats)
        if self.layer_timers:
            stats["store_ms"] = [ms for ms, _ in stores]
            stats["load_ms"] = self._probe_cache()
            stats["cache_mb"] = sum(
                _file_mb(os.path.join(cache_dir, name)) for name in os.listdir(cache_dir)
            )
        if traced:
            stats["layers"] = _attribution(profilers, self.checker)
            stats["sim_wall"] = sum(p.wall_ns for p in profilers) / 1e9
        shutil.rmtree(cache_dir, ignore_errors=True)
        return stats

    def _probe_cache(self) -> list[float]:
        """Disk-hit load time of every cell the round stored."""
        common.clear_run_cache()
        load_ms = []
        for cell in self.cells:
            start = time.perf_counter()
            hit = common.probe_cache(cell.spec())
            load_ms.append((time.perf_counter() - start) * 1000)
            self.checker.check_result(cell, hit, "probe_cache")
        return load_ms

    def layer_metrics(self, traced) -> dict:
        out = {}
        for prefix in LAYERS.values():
            out[f"{prefix}.self_s"] = _mean(
                [r["layers"].get(prefix, {}) for r in traced], "self_s"
            )
        for prefix in ("gpu.issue", "vm.walk", "uvm.evict"):
            calls = [r["layers"].get(prefix, {}).get("calls", 0) for r in traced]
            out[f"{prefix}.calls"] = sum(calls) / len(calls) if calls else 0
        out["sim.self_s"] = _mean([r["layers"]["sim"] for r in traced], "self_s")
        out["experiments.self_s"] = (
            sum(r["wall"] - r["sim_wall"] for r in traced) / len(traced) if traced else 0.0
        )
        stores = [ms for r in self.rounds for ms in r.get("store_ms", [])]
        loads = [ms for r in self.rounds for ms in r.get("load_ms", [])]
        out["cache.store_ms.p50"] = percentile(stores, 50)
        out["cache.load_ms.p50"] = percentile(loads, 50)
        out["cache.mb"] = _mean(self.rounds, "cache_mb")
        return out


def _attribution(profilers, checker) -> dict:
    """Sum the profilers' self time per layer.  The layers plus the
    unwrapped remainder must tile each simulator's wall time."""
    layers: dict[str, dict] = {"sim": {"self_s": 0.0}}
    for prof in profilers:
        attributed = sum(prof.self_ns.values())
        if not 0 < attributed <= prof.wall_ns:
            checker.fail(
                f"layer self time {attributed} ns does not fit in "
                f"simulator wall {prof.wall_ns} ns"
            )
        layers["sim"]["self_s"] += (prof.wall_ns - attributed) / 1e9
        for component, ns in prof.self_ns.items():
            row = layers.setdefault(LAYERS[component], {"self_s": 0.0, "calls": 0})
            row["self_s"] += ns / 1e9
            row["calls"] += prof.calls[component]
    return layers


class CheckpointSweep(Sweep):
    """``checkpointed``: each cell is cut at a seeded event count and
    resumed from its last batch-boundary checkpoint, the way the pool
    hands a crashed cell to a fresh worker.  The resumed result must
    equal the uninterrupted one bit for bit."""

    def __init__(self, cells, checker, clock, tmp, deadline, seed: int) -> None:
        super().__init__(cells, checker, clock, tmp, deadline)
        # Evenly spread cut points, dealt to the cells by the seed: every
        # seed re-simulates about the same amount of work after restore.
        n = len(cells)
        self.cut = [0.35 + 0.5 * i / max(1, n - 1) for i in range(n)]
        random.Random(seed).shuffle(self.cut)

    def run_round(self, traced: bool) -> dict:
        ckdir = tempfile.mkdtemp(prefix="ckpt-", dir=self.tmp)
        writes: list = []
        restores: list[float] = []
        results, op_s, scaled_s = [], [], []
        with (
            timed_call(checkpoint_io, "save_checkpoint", writes, lambda sim, path: _file_mb(path))
            if self.layer_timers
            else nullcontext()
        ):
            start = time.perf_counter()
            for index, (cell, cut) in enumerate(zip(self.cells, self.cut)):
                speed = self.clock.speed()
                begin = time.perf_counter()
                try:
                    result = self._interrupted(cell, cut, f"cell{index}", ckdir, restores)
                except ReproError as exc:
                    result = exc
                op_s.append(time.perf_counter() - begin)
                scaled_s.append(op_s[-1] * speed)
                results.append(result)
            wall = time.perf_counter() - start
        shutil.rmtree(ckdir, ignore_errors=True)
        write_s = sum(ms for ms, _ in writes) / 1000
        restore_s = sum(restores) / 1000
        stats = {
            "wall": wall,
            "op_s": op_s,
            "scaled_s": scaled_s,
            "writes": writes,
            "restore_ms": restores,
            "sim_self": wall - write_s - restore_s,
        }
        self.check(results, "resumed", stats)
        return stats

    def _interrupted(self, cell, cut, name, ckdir, restores):
        ref = self.checker.reference[cell.key]
        every = max(1, ref["batches"] // CHECKPOINTS_PER_CELL)
        workload = registry.build_workload(cell.workload, scale=cell.scale, seed=cell.seed)
        config = systems.by_name(cell.preset).configure(workload, ratio=cell.ratio)
        sim = GpuUvmSimulator(workload, config)
        sim.enable_checkpoints(ckdir, every=every, basename=name)
        try:
            return sim.run(
                max_events=int(ref["events"] * cut),
                wall_budget_seconds=self.budget(),
            )
        except SimulationStalledError:
            raise
        except SimulationError:
            pass  # the planned interruption at the event cap
        start = time.perf_counter()
        resumed = GpuUvmSimulator.restore(
            checkpoint_io.load_checkpoint(os.path.join(ckdir, f"{name}.ckpt"))
        )
        restores.append((time.perf_counter() - start) * 1000)
        resumed.enable_checkpoints(ckdir, every=every, basename=name)
        return resumed.resume(wall_budget_seconds=self.budget())

    def layer_metrics(self, traced) -> dict:
        writes = [w for r in self.rounds for w in r["writes"]]
        restores = [ms for r in self.rounds for ms in r["restore_ms"]]
        return {
            "checkpoint.writes": len(writes) / len(self.rounds),
            "checkpoint.write_ms.p50": percentile([ms for ms, _ in writes], 50),
            "checkpoint.mb": (sum(mb for _, mb in writes) / len(writes)) if writes else 0.0,
            "checkpoint.restore_ms.p50": percentile(restores, 50),
            "sim.self_s": _mean(self.rounds, "sim_self"),
        }


def run(kind: str, seed: int, seconds: float, trace: bool, tmp, checker, clock) -> tuple[dict, dict]:
    """Run one sweep workload; returns (end-to-end, per-layer) metrics."""
    grid = {"oversub": C.OVERSUB, "adequate": C.ADEQUATE, "checkpointed": C.CHECKPOINTED}[kind]
    cells = C.cells(grid, C.SWEEP_SEED)
    random.Random(seed).shuffle(cells)
    builds, setups = [], []
    for _ in range(SETUP_REPEATS):
        speed = clock.speed()
        builds.append(build_inputs(cells))
        setups.append(builds[-1] * speed)
    deadline = time.monotonic() + HARD_STOP_S + 30
    if kind == "checkpointed":
        sweep = CheckpointSweep(cells, checker, clock, tmp, deadline, seed)
    else:
        sweep = CellSweep(cells, checker, clock, tmp, deadline)
    sweep.measure(seconds, trace)
    e2e = {"setup_s": median(setups), **sweep.end_to_end()}
    layers = {"workloads.build_s": median(builds), **sweep.per_layer()}
    return e2e, layers
