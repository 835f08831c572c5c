"""Experiment dispatch and result tables.

Every cache-missing cell, in a sweep or in ``repro-serve``, is dispatched
by one function, :func:`submit_cell`: a future per cell, its result
cached the moment it lands, and one retry rule (:func:`_after_error`)
whether the cell runs in this process or on the crash-isolated
:class:`~repro.pool.SupervisedPool`.  :func:`run_cells` merges results
back by cell index, so a parallel run is bit-identical to the serial
one.  The experiment layers import in one direction: ``cells`` ←
``policy`` ← ``cache`` ← this module.
"""

from __future__ import annotations

import sys
import threading
import time as _time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import CellFailure, ReproError, SimulationStalledError
from repro.experiments import cells as cell_layer

# The benchmark (``perfbench/``) reads set_cache_dir, set_cell_hook,
# clear_run_cache, probe_cache and _disk_store from this module.
from repro.experiments.cache import (
    _disk_store,
    clear_run_cache,
    probe_cache,
    run_cache,
)
from repro.experiments.cells import MAX_EVENTS, RunSpec, memo_key, set_cell_hook
from repro.experiments.policy import (
    RunPolicy,
    default_policy,
    record_failures,
    set_cache_dir,
)
from repro.gpu.config import SimConfig
from repro.obs import current as _obs_current
from repro.pool import SupervisedPool
from repro.simulator import SimulationResult
from repro.systems import SystemPreset
from repro.workloads.trace import Workload

#: The paper's 11 irregular workloads, Figure 11 bar order.
PAPER_WORKLOADS = (
    "BC",
    "BFS-DWC",
    "BFS-TA",
    "BFS-TF",
    "BFS-TTC",
    "BFS-TWC",
    "GC-DTC",
    "GC-TTC",
    "KCORE",
    "SSSP-TWC",
    "PR",
)

#: Figure 1's regular workloads.
FIG1_REGULAR = ("CFD", "DWT", "GM", "H3D", "HS", "LUD")


@dataclass
class ExperimentResult:
    """A labelled table: rows of (label, {column: value})."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, **values: float) -> None:
        self.rows.append((label, values))

    def value(self, label: str, column: str) -> float:
        for row_label, values in self.rows:
            if row_label == label:
                return values[column]
        raise KeyError(f"no row {label!r} in {self.experiment}")

    def column(self, column: str) -> list[float]:
        return [values[column] for _, values in self.rows if column in values]

    def mean(self, column: str) -> float:
        vals = self.column(column)
        return sum(vals) / len(vals) if vals else 0.0

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        label_width = max(
            [len("workload")] + [len(label) for label, _ in self.rows]
        )
        header = "  ".join(
            [f"{'workload':<{label_width}}"]
            + [f"{col:>12}" for col in self.columns]
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for label, values in self.rows:
            cells = []
            for col in self.columns:
                v = values.get(col)
                if v is None:
                    cells.append(f"{'-':>12}")
                elif isinstance(v, float) and not v.is_integer():
                    cells.append(f"{v:>12.3f}")
                else:
                    cells.append(f"{int(v):>12}")
            lines.append("  ".join([f"{label:<{label_width}}"] + cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def is_failure(result) -> bool:
    """True when a result slot holds a :class:`CellFailure` record."""
    return isinstance(result, CellFailure)


def _cell_label(spec: RunSpec) -> str:
    """Human-readable cell identity for harness spans."""
    system = spec.preset.name if spec.preset is not None else "config"
    return f"{spec.workload}/{system}@{spec.scale}"


def _after_error(
    spec: RunSpec, exc: BaseException, attempts: int, policy: RunPolicy
) -> RunSpec | CellFailure:
    """The one retry rule, for cells run in process and in the pool.

    ``exc`` ended attempt number ``attempts``.  Returns the spec to
    retry with, or the cell's :class:`CellFailure` — *raised* (chained
    to ``exc``) under the ``raise`` policy, so a sweep still aborts
    loudly.  A transient ``OSError`` retries while the budget lasts, and
    so does a watchdog stall that left a checkpoint: its retry *resumes*
    the checkpoint, so each attempt makes forward progress even under a
    tight budget.  Any other ``ReproError`` (a deterministic error would
    simply reproduce) and ``MemoryError`` (a cell that exhausts memory
    will exhaust it again) fail at once; failures the pool built
    (poison cells) arrive structured.  Anything outside
    that taxonomy propagates: it is a bug, not a cell failure.
    """
    if not isinstance(exc, (ReproError, MemoryError, OSError)):
        raise exc
    stalled = (
        isinstance(exc, SimulationStalledError)
        and spec.checkpoint_dir is not None
        and getattr(exc, "checkpoint_path", None) is not None
    )
    if attempts <= policy.retries and (stalled or isinstance(exc, OSError)):
        return replace(spec, resume=True) if stalled else spec
    failure = exc
    if not isinstance(exc, CellFailure):
        failure = CellFailure(
            str(exc) or type(exc).__name__,
            workload=spec.workload,
            system=spec.preset.name if spec.preset is not None else "config",
            attempts=attempts,
            error_type=type(exc).__qualname__,
            scale=spec.scale,
        )
        # The simulator attaches a flight-recorder dump (recent batches
        # + engine events) to the exception when analytics is on; carry
        # it so the runner's failure snapshot includes the forensics.  A
        # stall that managed to checkpoint also names the file, so the
        # operator can resume the cell by hand after the budget ran out.
        failure.flight_recorder = getattr(exc, "flight_recorder", None)
        failure.checkpoint_path = getattr(exc, "checkpoint_path", None)
    if policy.on_error != "keep-going":
        raise failure from (None if failure is exc else exc)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter(
            "experiments.cell_failures", error=failure.error_type
        ).inc()
    if policy.progress:
        sys.stderr.write(f"\n  [cell failed] {failure.summary()}\n")
        sys.stderr.flush()
    return failure


def submit_cell(
    spec: RunSpec,
    policy: RunPolicy,
    pool=None,
    use_cache: bool = True,
) -> Future:
    """Dispatch one cache-missing cell (``policy`` already applied).

    Returns a :class:`~concurrent.futures.Future` that resolves to the
    cell's :class:`SimulationResult`, or, under ``keep-going``, to its
    :class:`CellFailure` (under ``raise`` the future raises it; errors
    outside the taxonomy propagate through it).  The result is stored in
    the run cache (when ``use_cache``) the moment it lands.  With no
    ``pool`` every attempt runs in this thread, and the future is done
    on return; with one, every attempt — retries included — runs on the
    pool, and retry backoff waits on a timer thread.
    """
    cache = run_cache(policy)
    key = memo_key(spec)
    cache.count("misses")
    outcome: Future = Future()

    def attempt(spec: RunSpec, attempts: int) -> None:
        future: Future = Future()
        try:
            if pool is None:
                # Looked up at call time, like the pool worker does, so a
                # test that replaces ``cells.simulate_spec`` sees every run.
                future.set_result(cell_layer.simulate_spec(spec))
            else:
                future = pool.submit(spec)
        except Exception as exc:
            future.set_exception(exc)
        future.add_done_callback(lambda f: landed(f, spec, attempts))

    def landed(future: Future, spec: RunSpec, attempts: int) -> None:
        try:
            exc = future.exception()
            if exc is None:
                result = future.result()
                if use_cache:
                    # ``_disk_store`` is read from this module's globals at
                    # each store: perfbench times stores by replacing
                    # ``common._disk_store``, and a name bound in the cache
                    # layer would bypass it (``cache.store_ms`` reading 0).
                    cache.put(key, result, policy, _disk_store)
                outcome.set_result(result)
                return
            retry = _after_error(spec, exc, attempts, policy)
        except BaseException as err:
            outcome.set_exception(err)
            return
        if isinstance(retry, CellFailure):
            outcome.set_result(retry)
            return
        delay = policy.retry_backoff * 2 ** (attempts - 1)
        if pool is None or not delay:
            _time.sleep(delay)
            attempt(retry, attempts + 1)
        else:
            timer = threading.Timer(delay, attempt, (retry, attempts + 1))
            timer.daemon = True
            timer.start()

    attempt(spec, 1)
    return outcome


def run_cells(
    cells: Sequence[RunSpec],
    use_cache: bool = True,
    label: str = "cells",
    on_error: str | None = None,
    pool=None,
    policy: RunPolicy | None = None,
) -> list[SimulationResult]:
    """Run every cell, in parallel for cache misses; results keep order.

    ``policy`` (default: the current
    :func:`~repro.experiments.policy.run_policy` scope's) is
    applied to every cell here, in the calling process: cache, workers,
    chaos, invariants, timeouts, checkpoints, retries, and on-error.
    ``on_error`` overrides the policy's on-error rule for this call.

    The fan-out is transparent: each missing cell runs exactly the
    simulation the serial path would (same parameters, same seeds, fresh
    deterministic engine), and results are merged back by index — so
    ``jobs=N`` output is bit-identical to ``jobs=1``.  Every missing
    cell goes through :func:`submit_cell`, so each result reaches the
    run cache as soon as it lands.

    With ``policy.jobs > 1`` (or a caller-owned ``pool``), every attempt
    of every missing cell runs in a crash-isolated
    :class:`repro.pool.SupervisedPool` (heartbeats, SIGTERM → SIGKILL
    escalation, restart with backoff, checkpoint-based handoff of
    interrupted cells, per-key circuit breaker, an in-place heal when no
    worker can be kept alive); otherwise the cells run here, one by one.

    Under ``keep-going`` a persistently failing cell's slot holds a
    :class:`~repro.errors.CellFailure` instead of a result, and the sweep
    completes with partial data.  Calls that pass no ``policy`` also
    report those failures to the enclosing
    :func:`~repro.experiments.policy.run_policy` scope.
    """
    scoped = policy is None
    policy = default_policy() if scoped else policy
    if on_error is not None:
        policy = replace(policy, on_error=on_error)
    cells = [policy.apply(cell) for cell in cells]
    cache = run_cache(policy)
    results: list[SimulationResult | None] = [None] * len(cells)
    pending: list[int] = []
    for i, cell in enumerate(cells):
        hit = cache.get(memo_key(cell), policy) if use_cache else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)
    obs = _obs_current()
    started = _time.monotonic()
    done = 0

    def report(final: bool = False) -> None:
        # A single cell (run_system, run_config) has no progress to show.
        if not policy.progress or len(cells) < 2:
            return
        elapsed = _time.monotonic() - started
        end = "\n" if final else "\r"
        sys.stderr.write(
            f"  [{label}] {len(cells) - len(pending) + done}/{len(cells)} "
            f"cells ({len(cells) - len(pending)} cached, "
            f"{done} run, {elapsed:.1f}s){end}"
        )
        sys.stderr.flush()

    def on_landed(_: Future) -> None:
        nonlocal done
        done += 1
        report()

    report()
    if pending and (pool is not None or policy.jobs > 1):
        # Worker processes have no obs session of their own: the fan-out
        # is summarised as one harness span (per-cell sim tracing needs
        # the serial path).
        fan_out = nullcontext() if obs is None else obs.tracer.wall_span(
            "experiments", f"{label} fan-out", cells=len(pending),
            jobs=policy.jobs,
        )
        own_pool = None
        if pool is None:
            pool = own_pool = SupervisedPool(
                policy.pool_config(workers=min(policy.jobs, len(pending)))
            )
        try:
            with fan_out:
                futures = [
                    submit_cell(cells[i], policy, pool, use_cache)
                    for i in pending
                ]
                for future in futures:
                    future.add_done_callback(on_landed)
                for i, future in zip(pending, futures):
                    results[i] = future.result()
        finally:
            if own_pool is not None:
                own_pool.close()
    else:
        for i in pending:
            span = nullcontext() if obs is None else obs.tracer.wall_span(
                "experiments", _cell_label(cells[i]), group=label
            )
            with span:
                future = submit_cell(cells[i], policy, None, use_cache)
            results[i] = future.result()
            on_landed(future)
    if cells:
        report(final=True)

    if scoped:
        record_failures(results)
    return results  # type: ignore[return-value]


def run_system(
    preset: SystemPreset,
    workload: Workload | str,
    scale: str = "tiny",
    ratio: float | None = None,
    fault_handling_cycles: int | None = None,
    max_events: int = MAX_EVENTS,
    seed: int = 0,
    use_cache: bool = True,
    policy: RunPolicy | None = None,
) -> SimulationResult:
    """Build (or reuse) a workload and run it under ``preset``."""
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        preset=preset,
        scale=scale,
        ratio=ratio,
        fault_handling_cycles=fault_handling_cycles,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache, policy=policy)[0]


def run_config(
    workload: Workload | str,
    config: SimConfig,
    scale: str = "tiny",
    seed: int = 0,
    max_events: int = MAX_EVENTS,
    use_cache: bool = True,
    policy: RunPolicy | None = None,
) -> SimulationResult:
    """Run an explicit :class:`SimConfig` (ablations) through the cache.

    The cache key hashes the full config contents, so two distinct
    configs never collide even if they came from the same preset.
    """
    name = workload if isinstance(workload, str) else workload.name
    spec = RunSpec(
        workload=name,
        config=config,
        scale=scale,
        seed=seed,
        max_events=max_events,
    )
    return run_cells([spec], use_cache=use_cache, policy=policy)[0]


def run_matrix(
    presets: Sequence[SystemPreset],
    workloads: Sequence[str],
    scale: str,
    ratio: float | None = None,
    label: str | None = None,
    policy: RunPolicy | None = None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run every (workload, preset) pair; keys are (workload, preset.name).

    Cells missing from the cache fan out across ``policy.jobs`` worker
    processes (default policy: ``REPRO_JOBS``, i.e. serial).
    """
    use_cache = kwargs.pop("use_cache", True)
    cells = [
        RunSpec(
            workload=name,
            preset=preset,
            scale=scale,
            ratio=ratio,
            **kwargs,
        )
        for name in workloads
        for preset in presets
    ]
    results = run_cells(
        cells,
        use_cache=use_cache,
        label=label or "matrix",
        policy=policy,
    )
    return {
        (cell.workload, cell.preset.name): result
        for cell, result in zip(cells, results)
    }
