"""Top-level GPU UVM simulator.

Wires the GPU substrate (SMs, caches, MMU), the UVM runtime (fault
batching, migration, eviction), the paper's mechanisms (Thread
Oversubscription, Unobtrusive Eviction), and the baselines (tree
prefetching, PCIe compression, ETC) around one workload trace, and runs
the kernels to completion on the discrete-event engine.

Typical use::

    from repro import GpuUvmSimulator, SimConfig, build_workload, systems

    workload = build_workload("BFS-TTC", scale="tiny")
    config = systems.TO_UE.configure(workload)  # 50% oversubscription
    result = GpuUvmSimulator(workload, config).run()
    print(result.exec_cycles, result.batch_stats.num_batches)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappush
from pathlib import Path

from repro.baselines.etc import EtcController
from repro.chaos import ChaosSession
from repro.core.batching import BatchStats
from repro.core.lifetime import PageLifetimeMonitor
from repro.core.oversubscription import ThreadOversubscriptionController
from repro.errors import (
    ConfigError,
    InjectionError,
    InvariantViolation,
    SimulationError,
    SimulationStalledError,
)
from repro.gpu.caches import CacheHierarchy
from repro.gpu.config import SimConfig
from repro.gpu.context import ContextCostModel
from repro.gpu.dispatcher import Dispatcher
from repro.gpu.occupancy import OccupancyCalculator
from repro.gpu.sm import StreamingMultiprocessor, always_allowed
from repro.gpu.thread_block import BlockState, ThreadBlock
from repro.gpu.warp_soa import FINISHED, CheckedWarpStore, SoAWarp, WarpStore
from repro.invariants import InvariantChecker, Watchdog
from repro.lifecycle import WARP_LIFECYCLE, TransitionValidator
from repro.obs import current as _current_obs
from repro.sim.engine import Engine
from repro.uvm.compression import CapacityCompression
from repro.uvm.eviction import make_eviction_strategy
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.prefetcher import make_prefetcher
from repro.uvm.replacement import ReplacementPolicy, make_replacement_policy
from repro.uvm.runtime import UvmRuntime
from repro.uvm.transfer import PcieModel
from repro.vm.mmu import GpuMmu
from repro.vm.page_table import PageTable
from repro.workloads.trace import Workload


#: Batches in a row that may complete with no warp op retired before a
#: run fails as livelocked; finishing cells stay far below it
#: (docs/robustness.md lists the longest streaks measured).
LIVELOCK_BATCHES = 1000


class _ExecuteOpEvent:
    """Interned warp-step event: one reusable object per warp.

    The engine fires millions of these; binding the warp once avoids a
    fresh closure (cell object + lambda frame) per scheduling.  ``kind``
    feeds the obs layer's per-event-kind dispatch counters under the same
    label the old lambda produced.
    """

    __slots__ = ("_sim", "_warp")
    kind = "GpuUvmSimulator._execute_op"

    def __init__(self, sim: "GpuUvmSimulator", warp: SoAWarp) -> None:
        self._sim = sim
        self._warp = warp

    def __call__(self) -> None:
        self._sim._execute_op(self._warp)


class _WarpCompletedEvent:
    """Interned warp-completion event (see :class:`_ExecuteOpEvent`)."""

    __slots__ = ("_sim", "_warp")
    kind = "GpuUvmSimulator._warp_completed"

    def __init__(self, sim: "GpuUvmSimulator", warp: SoAWarp) -> None:
        self._sim = sim
        self._warp = warp

    def __call__(self) -> None:
        self._sim._warp_completed(self._warp)


@dataclass
class SimulationResult:
    """Everything the experiments need from one run."""

    workload: str
    exec_cycles: int
    batch_stats: BatchStats
    faults_raised: int = 0
    unique_fault_pages: int = 0
    migrated_pages: int = 0
    prefetched_pages: int = 0
    evicted_pages: int = 0
    premature_refaults: int = 0
    premature_eviction_rate: float = 0.0
    context_switches: int = 0
    switch_cycles: int = 0
    warp_stall_cycles: int = 0
    l1_tlb_hit_rate: float = 0.0
    l2_tlb_hit_rate: float = 0.0
    l1_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    events_processed: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Baseline execution time divided by this run's (higher = faster)."""
        if self.exec_cycles <= 0:
            raise SimulationError("run did not execute")
        return baseline.exec_cycles / self.exec_cycles

    def summary(self) -> str:
        """Multi-line human-readable digest of the run."""
        stats = self.batch_stats
        lines = [
            f"{self.workload}: {self.exec_cycles:,} cycles",
            (
                f"  batches: {stats.num_batches} "
                f"(avg {stats.mean_batch_pages:.1f} pages, "
                f"{stats.mean_processing_time:,.0f} cycles each; "
                f"fault handling {stats.mean_fault_handling_time:,.0f})"
            ),
            (
                f"  pages: {self.migrated_pages:,} migrated "
                f"({self.prefetched_pages:,} prefetched), "
                f"{self.evicted_pages:,} evicted "
                f"({self.premature_eviction_rate:.0%} premature)"
            ),
            (
                f"  faults: {self.faults_raised:,} raised over "
                f"{self.unique_fault_pages:,} pages; "
                f"warp stall {self.warp_stall_cycles:,} cycles"
            ),
        ]
        if self.context_switches:
            lines.append(
                f"  context switches: {self.context_switches:,} "
                f"({self.switch_cycles:,} cycles)"
            )
        lines.append(
            f"  hit rates: L1 TLB {self.l1_tlb_hit_rate:.0%}, "
            f"L2 TLB {self.l2_tlb_hit_rate:.0%}, "
            f"L1D {self.l1_hit_rate:.0%}, L2D {self.l2_hit_rate:.0%}"
        )
        return "\n".join(lines)


class GpuUvmSimulator:
    """One workload under one system configuration."""

    def __init__(
        self,
        workload: Workload,
        config: SimConfig,
        obs=None,
    ) -> None:
        self.workload = workload
        self.config = config
        #: The :class:`repro.obs.Observability` session instrumenting this
        #: run: the one passed explicitly, else the globally installed one
        #: (``repro.obs.configure``/``session``), else None — fully off.
        self.obs = obs if obs is not None else _current_obs()
        self.engine = Engine()
        self.engine.obs = self.obs
        self.page_shift = workload.address_space.page_shift
        if workload.address_space.page_size != config.uvm.page_size:
            raise SimulationError(
                "workload page size does not match UVM config page size"
            )

        gpu = config.gpu
        self.page_table = PageTable()
        self.mmu = GpuMmu(gpu, self.page_table)
        self.caches = CacheHierarchy(gpu)
        self._runahead_enabled = config.runahead.enabled

        frames = config.uvm.frames
        self._access_penalty = 0
        if config.etc.enabled:
            cc = CapacityCompression(
                config.etc.capacity_compression_ratio,
                config.etc.compression_latency_cycles,
            )
            frames = cc.effective_frames(frames)
            self._access_penalty = cc.access_penalty()

        self.memory = GpuMemoryManager(
            frames, make_replacement_policy(config.uvm.replacement_policy)
        )
        self._bind_hot_paths()
        self.pcie = PcieModel(config.uvm)
        self.runtime = UvmRuntime(
            self.engine,
            config.uvm,
            self.page_table,
            self.memory,
            self.pcie,
            make_eviction_strategy(config.eviction),
            make_prefetcher(config.uvm),
            workload.address_space.all_pages(),
        )
        self.runtime.wake_warps = self._wake_warps
        self.runtime.on_evict = self._on_evict
        self.runtime.obs = self.obs
        self.runtime.fault_buffer.obs = self.obs
        self.pcie.attach_obs(self.obs)

        #: Fault-injection session (:mod:`repro.chaos`); built from
        #: ``config.chaos`` and attached to every injection site.  None
        #: keeps each site a single pointer test.
        self.chaos: ChaosSession | None = None
        if config.chaos is not None:
            self.chaos = ChaosSession(config.chaos, obs=self.obs)
            self.runtime.chaos = self.chaos
            self.runtime.fault_buffer.chaos = self.chaos
            self.pcie.attach_chaos(self.chaos)

        #: Batch-boundary consistency checker (:mod:`repro.invariants`).
        self.invariants: InvariantChecker | None = None
        #: Shared warp-lifecycle conformance checker (one per simulator,
        #: not per warp); with it, each kernel's warps live in a
        #: ``CheckedWarpStore``.
        self._warp_validator: TransitionValidator | None = None
        if config.check_invariants:
            self.invariants = InvariantChecker(
                memory=self.memory,
                page_table=self.page_table,
                runtime=self.runtime,
            )
            self.runtime.invariants = self.invariants
            # Transition-level hooks: every declared lifecycle move is
            # reported to the checker's counting observer.
            self.engine.lifecycle.observer = self.invariants.on_transition
            self._warp_validator = TransitionValidator(
                WARP_LIFECYCLE, observer=self.invariants.on_transition
            )
        # The batch machine's observer also drives the batch-boundary
        # checkpoint trigger, so it is installed unconditionally (batch
        # transitions are rare — a few per batch, not per event).
        self.runtime.machine.observer = self._on_batch_transition

        self.to_controller = ThreadOversubscriptionController(config.to)

        #: Per-run analytics (:mod:`repro.obs.analytics`): opened only
        #: when the obs session was built with ``analytics=True``; every
        #: hot-path hook below guards on ``self._an is not None``.
        self._an = None
        if self.obs is not None:
            analytics = getattr(self.obs, "analytics", None)
            if analytics is not None:
                self._an = analytics.open_run(workload.name, config.gpu.num_sms)
                self._an.oversub_probe = self._extra_blocks_allowed
                self.runtime.analytics = self._an

        self.lifetime_monitor = PageLifetimeMonitor(
            self.engine,
            self.memory,
            config.to.monitor_period_cycles,
            config.to.lifetime_drop_threshold,
        )
        self.lifetime_monitor.on_sample = self.to_controller.on_lifetime_sample
        self.to_controller.on_grow = self._on_to_grow

        self.etc: EtcController | None = None
        if config.etc.enabled:
            self.etc = EtcController(
                config.etc, self.engine, [], self.memory, self.runtime
            )
            self.runtime.on_batch_end = self.etc.on_batch_end

        self.occupancy = OccupancyCalculator(gpu)
        self.context_cost = ContextCostModel(gpu)

        self._kernel_index = 0
        self._warp_store: WarpStore | None = None
        self._dispatcher: Dispatcher | None = None
        self._sms: list[StreamingMultiprocessor] = []
        self._done = False
        self._completion_cycles = 0
        self._warp_stall_cycles = 0
        self._runahead_probes = 0
        self._runahead_faults = 0
        #: Forward-progress watch (``_on_batch_transition``): (kernel,
        #: ops retired) at the last batch completion, and batches since.
        self._progress = None
        self._idle_batches = 0
        self._unique_fault_pages: set[int] = set()
        self._context_switches = 0
        self._switch_cycles = 0
        self._ran = False
        #: True on instances rebuilt from a checkpoint (see ``resume``).
        self._restored = False
        #: This run's obs scope index (int), kept so a restored run
        #: continues emitting into the same named track.
        self._obs_scope: int | None = None
        # Checkpoint policy + bookkeeping (see ``enable_checkpoints``).
        self._checkpoint_dir: str | None = None
        self._checkpoint_every = 1
        self._checkpoint_basename = ""
        self._batches_since_checkpoint = 0
        self.checkpoint_writes = 0
        self.checkpoint_write_seconds = 0.0
        self.last_checkpoint_path: str | None = None

    def _bind_hot_paths(self) -> None:
        """(Re)build the process-local hot-path bindings.

        Called from ``__init__`` and again from ``__setstate__``: the
        issue loop's per-SM tuples hold bound builtin methods
        (``dict.get``, ``set.add``) that cannot be pickled, so checkpoints
        drop them and restore rebinds against the unpickled containers.
        """
        # Access-promotion hook for the issue loop: None when the
        # configured policy inherits the base no-op ``touch`` (aged-lru),
        # letting the hot loop skip the per-page call entirely; bound
        # method otherwise (access-lru).  Behaviour-identical either way.
        policy = self.memory.policy
        self._policy_touch = (
            None
            if type(policy).touch is ReplacementPolicy.touch
            else policy.touch
        )
        # Per-SM hot-path bindings for the issue loop: one tuple
        # unpack replaces ~20 attribute-chain loads per executed op.  All
        # referenced containers (TLB/cache sets, version map, dirty set)
        # are created once in their owners' __init__ and never reassigned,
        # so the bound references stay valid for the simulator's lifetime.
        gpu = self.config.gpu
        versions = self.page_table._versions
        l2d = self.caches.l2
        self._sm_hot = [
            (
                l1,
                l1._sets[0],
                l1._sets[0].get,
                versions,
                versions.get,
                self.mmu.translate_after_l1_miss,
                gpu.l1_tlb_hit_cycles,
                l1d,
                l1d._sets,
                l1d.num_sets,
                l2d,
                l2d._sets,
                l2d.num_sets,
                l2d.assoc,
                gpu.l1_hit_cycles,
                gpu.l2_hit_cycles,
                gpu.memory_latency_cycles,
                self._access_penalty,
                self.memory._alloc_time,
                self.memory._dirty.add,
                self._policy_touch,
            )
            for l1, l1d in zip(self.mmu.l1_tlbs, self.caches.l1)
        ]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        max_events: int | None = None,
        wall_budget_seconds: float | None = None,
    ) -> SimulationResult:
        """Run every kernel to completion and return the results.

        ``wall_budget_seconds`` arms an engine watchdog that raises
        :class:`~repro.errors.SimulationStalledError` (with a diagnostic
        state snapshot) if the run exceeds the real-time budget — the
        mechanism behind the experiment runner's per-cell timeout.  A
        watchdog is also armed when ``config.check_invariants`` is on, to
        catch event livelock (many events without simulated time
        advancing).
        """
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True
        self._arm_watchdog(wall_budget_seconds)
        if self.obs is not None:
            # Each run gets its own scope (a named process group in the
            # exported trace), so several runs in one obs session never
            # interleave on the same tracks.
            self._obs_scope = self.obs.tracer.open_scope(self.workload.name)
        if self.config.to.enabled:
            self.lifetime_monitor.start()
        self.engine.schedule(0, self._start_next_kernel)
        return self._drive(max_events)

    def resume(
        self,
        max_events: int | None = None,
        wall_budget_seconds: float | None = None,
    ) -> SimulationResult:
        """Continue a checkpoint-restored run to completion.

        Only valid on instances rebuilt by :mod:`repro.checkpoint`: the
        engine queue, page tables, warp state, and RNG streams are
        exactly as captured, so driving the queue again produces the same
        ``SimulationResult`` bits an uninterrupted run would have.
        """
        if not self._restored:
            raise SimulationError(
                "resume() is only valid on a checkpoint-restored simulator"
            )
        if self._done:
            raise SimulationError("cannot resume a completed simulation")
        self._arm_watchdog(wall_budget_seconds)
        return self._drive(max_events)

    def _arm_watchdog(self, wall_budget_seconds: float | None) -> None:
        if wall_budget_seconds is not None or self.config.check_invariants:
            self.engine.watchdog = Watchdog(
                wall_budget_seconds=wall_budget_seconds,
                snapshot=self.state_snapshot,
            )

    def _drive(self, max_events: int | None) -> SimulationResult:
        """Shared tail of :meth:`run` and :meth:`resume`: drain the event
        queue, validate completion, build the result — and on failure
        attach diagnostics (flight recorder) and, for stalls, write a
        resumable checkpoint instead of discarding the finished work."""
        previous_scope = None
        scoped = self.obs is not None and self._obs_scope is not None
        if scoped:
            previous_scope = self.obs.tracer.set_scope(self._obs_scope)
        try:
            self.engine.run(max_events=max_events)
            if not self._done:
                reason = (
                    f"event cap of {max_events} reached"
                    if self.engine.pending_events
                    else "event queue drained (deadlock)"
                )
                raise SimulationError(
                    f"simulation incomplete at cycle {self.engine.now} ({reason}): "
                    f"kernel {self._kernel_index}/{len(self.workload.kernels)}, "
                    f"{self._dispatcher.unfinished if self._dispatcher else '?'} "
                    "blocks unfinished"
                )
            if self.invariants is not None:
                self.invariants.on_quiescence(self.engine.now)
            return self._build_result()
        except SimulationStalledError as exc:
            self._attach_flight(exc)
            # A stall (watchdog timeout / wall budget) leaves the engine
            # *between events* — the engine calls the watchdog only once
            # an event has fired — so the state is consistent and worth
            # keeping.  The checkpoint path rides on the error for the
            # harness's resume logic.
            if self._checkpoint_dir is not None:
                try:
                    exc.checkpoint_path = str(self._write_checkpoint())
                except Exception as write_exc:  # keep the stall primary
                    exc.checkpoint_error = repr(write_exc)
            raise
        except (InvariantViolation, InjectionError) as exc:
            # No checkpoint here: these raise mid-callback, where queue
            # counters and component state may be inconsistent.
            self._attach_flight(exc)
            raise
        finally:
            if scoped:
                self.obs.tracer.set_scope(previous_scope)

    def _attach_flight(self, exc) -> None:
        an = self._an
        if an is not None:
            # Flight-recorder dump: recent batch records + engine
            # events, attached as an *attribute* (ReproError.__reduce__
            # preserves __dict__, so the dump survives worker-process
            # pickling and lands in the runner's failure snapshots).
            exc.flight_recorder = an.failure_dump(
                error_type=type(exc).__name__,
                message=str(exc),
                now=self.engine.now,
                state=self.state_snapshot(),
                fault_buffer=self.runtime.fault_buffer.counters(),
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def enable_checkpoints(
        self,
        directory: str | Path,
        every: int = 1,
        basename: str | None = None,
    ) -> None:
        """Write a whole-simulation checkpoint every ``every`` completed
        batches (and on watchdog stalls) into ``directory``.

        The batch machine's ``complete`` transition marks the file due;
        the engine's run loop writes it *between* events — possibly a
        few events into the next batch, which is still a consistent (and
        restorable) point.
        """
        if every <= 0:
            raise ConfigError("checkpoint interval must be positive", every=every)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._checkpoint_dir = str(directory)
        self._checkpoint_every = int(every)
        self._checkpoint_basename = basename or self.workload.name
        self.engine.checkpoint_hook = self._write_checkpoint

    def snapshot(self):
        """In-memory whole-simulation checkpoint (``SimCheckpoint``).

        Only meaningful between engine events — i.e. before :meth:`run`,
        after it returns/raises a stall, or from the engine's checkpoint
        hook.  Capturing mid-event would freeze a half-applied step.
        """
        from repro.checkpoint import SimCheckpoint

        return SimCheckpoint.capture(self)

    @classmethod
    def restore(cls, checkpoint) -> "GpuUvmSimulator":
        """Rebuild a simulator from a ``SimCheckpoint`` or checkpoint file."""
        from repro.checkpoint import restore_checkpoint

        return restore_checkpoint(checkpoint)

    def _write_checkpoint(self) -> Path:
        """Engine checkpoint hook: persist the current state atomically."""
        from repro.checkpoint import save_checkpoint

        path = Path(self._checkpoint_dir) / f"{self._checkpoint_basename}.ckpt"
        start = time.perf_counter()
        save_checkpoint(self, path)
        self.checkpoint_write_seconds += time.perf_counter() - start
        self.checkpoint_writes += 1
        self.last_checkpoint_path = str(path)
        return path

    def _on_batch_transition(
        self, machine: str, event: str, source: str, target: str
    ) -> None:
        """Observer on the runtime's batch machine: forward to the
        invariant checker, fail a run whose batches complete without any
        warp op retiring, and mark checkpoints due at batch boundaries."""
        invariants = self.invariants
        if invariants is not None:
            invariants.on_transition(machine, event, source, target)
        if event != "complete":
            return
        progress = (self._kernel_index, self._kernel_ops_retired())
        if progress != self._progress:
            self._progress, self._idle_batches = progress, 0
        else:
            self._idle_batches += 1
            if self._idle_batches >= LIVELOCK_BATCHES:
                # Deterministic, so not a (retried, resumable) stall.
                raise SimulationError(
                    "livelock: batches keep completing but no warp op retires",
                    kind="livelock",
                    idle_batches=self._idle_batches,
                    ops_retired=progress[1],
                    **self.state_snapshot(),
                )
        if self.engine.checkpoint_hook is not None:
            self._batches_since_checkpoint += 1
            if self._batches_since_checkpoint >= self._checkpoint_every:
                self._batches_since_checkpoint = 0
                self.engine.checkpoint_due = True

    def _kernel_ops_retired(self) -> int:
        """Ops the current kernel retired (each retire advances a pc)."""
        store = self._warp_store
        return sum(store.pc) if store is not None else 0

    def __getstate__(self) -> dict:
        """Checkpoint pickling: drop the process-local hot-path bindings.

        ``_sm_hot`` holds bound builtin methods (``dict.get``,
        ``set.add``) that cannot pickle; ``__setstate__`` rebinds them
        against the restored containers via :meth:`_bind_hot_paths`.
        """
        state = self.__dict__.copy()
        state.pop("_sm_hot", None)
        state.pop("_policy_touch", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_hot_paths()
        self._restored = True

    # ------------------------------------------------------------------
    # Kernel lifecycle
    # ------------------------------------------------------------------
    def _start_next_kernel(self) -> None:
        if self._kernel_index >= len(self.workload.kernels):
            self._finish()
            return
        kernel = self.workload.kernels[self._kernel_index]
        self._kernel_index += 1

        blocks = self._build_blocks(kernel)
        if not blocks:
            self.engine.schedule(0, self._start_next_kernel)
            return

        active_limit = self.occupancy.blocks_per_sm(kernel.resources)
        forced = self.config.forced_oversubscription
        switch_allowed = (
            always_allowed if forced else self.to_controller.context_switch_allowed
        )
        self._sms = [
            StreamingMultiprocessor(
                sm_id,
                self.engine,
                active_limit,
                self.context_cost,
                kernel.resources,
                self._schedule_warp,
                switch_allowed,
                forced,
            )
            for sm_id in range(self.config.gpu.num_sms)
        ]
        if self.etc is not None:
            self.etc.sms = self._sms
            if self.etc.triggered and self.etc.throttling:
                for sm in self.etc.throttled_sms:
                    sm.set_throttled(True)
        an = self._an
        if an is not None:
            for sm in self._sms:
                sm.analytics = an
            an.flight.record(
                "kernel_start",
                self.engine.now,
                kernel=self._kernel_index,
                blocks=len(blocks),
            )

        extra = self._extra_blocks_allowed
        self._dispatcher = Dispatcher(
            self._sms, blocks, extra, self._on_kernel_done
        )
        self._dispatcher.launch()

    def _build_blocks(self, kernel) -> list[ThreadBlock]:
        """Kernel build: one WarpStore for the whole launch.

        Warp indices are assigned in dispatch order, so each block's warps
        occupy a contiguous index range (what the block predicates scan).
        Per-op derived data (pages, lines, store pages, time-scaled
        compute) comes from the trace's derived cache
        (:func:`~repro.gpu.warp_soa.kernel_derived`): traces are
        immutable, so repeated simulations of the same workload (sweeps,
        benchmark repetitions, checkpoint restores) reuse the tuples
        instead of re-deriving them every launch.
        """
        # ``_start_next_kernel`` has already advanced past this kernel.
        args = (
            self.workload,
            self._kernel_index - 1,
            self.page_shift,
            self.config.time_scale,
        )
        validator = self._warp_validator
        store = (
            WarpStore(*args)
            if validator is None
            else CheckedWarpStore(validator, *args)
        )
        self._warp_store = store
        blocks: list[ThreadBlock] = []
        bounds = kernel.block_start.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            warps = []
            for index in range(lo, hi):
                warp = store.add_handle(index, index - lo)
                warp.exec_event = _ExecuteOpEvent(self, warp)
                warp.complete_event = _WarpCompletedEvent(self, warp)
                warps.append(warp)
            if not warps or all(w.finished for w in warps):
                continue  # nothing to execute
            blocks.append(ThreadBlock(len(blocks), warps))
        return blocks

    def _extra_blocks_allowed(self) -> int:
        if self.config.forced_oversubscription:
            return 1
        return self.to_controller.extra_blocks_allowed

    def _on_to_grow(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.top_up()

    def _on_kernel_done(self) -> None:
        obs = self.obs
        for sm in self._sms:
            self._context_switches += sm.context_switches
            self._switch_cycles += sm.switch_cycles_spent
            if obs is not None:
                if sm.context_switches:
                    obs.metrics.counter(
                        "sm.context_switches", sm=sm.sm_id
                    ).inc(sm.context_switches)
                if sm.switch_cycles_spent:
                    obs.metrics.counter(
                        "sm.switch_cycles", sm=sm.sm_id
                    ).inc(sm.switch_cycles_spent)
        self.engine.schedule(0, self._start_next_kernel)

    def _finish(self) -> None:
        self._done = True
        # Capture the completion time here: stray periodic events (monitor
        # ticks, ETC epochs) may still drain after the last block retires
        # and must not count as execution time.
        self._completion_cycles = self.engine.now
        self.lifetime_monitor.stop()
        if self.etc is not None:
            self.etc.stop()

    # ------------------------------------------------------------------
    # Warp execution
    # ------------------------------------------------------------------
    def _schedule_warp(self, warp: SoAWarp, extra_delay: int) -> None:
        """Schedule the warp's current op to issue after its compute time
        (pre-scaled at kernel build)."""
        store = warp.store
        i = warp.index
        if store.issue(i):
            delay = extra_delay + store.op_compute[i][store.pc[i]]
            self.engine.schedule(delay, warp.exec_event)

    def _execute_op(self, warp: SoAWarp) -> None:
        """Issue the warp's current op: translate, fault or access, retire.

        The per-event work is restructured for speed; the golden corpus
        (``tests/test_equivalence_golden.py``) locks the result bits:

        * op-derived data (pages, lines, store pages, scaled compute)
          comes from the WarpStore's precomputed tuples;
        * the L1 TLB probe is inlined (fully associative by construction,
          so ``_sets[0]`` is the whole TLB), replicating
          :meth:`~repro.vm.tlb.Tlb.lookup` counter-for-counter (hits are
          added once per op, as the data caches' counters are); misses
          fall back to :meth:`~repro.vm.mmu.GpuMmu.translate_after_l1_miss`,
          the cold path :meth:`~repro.vm.mmu.GpuMmu.translate` shares;
        * the data-cache probe-and-fill is inlined from
          :meth:`~repro.gpu.caches.CacheHierarchy.access_lines`, with
          :meth:`~repro.gpu.caches.L1Cache.access` (deque sets) and
          :meth:`~repro.gpu.caches.Cache.access` (the L2) as the
          per-level specifications;
        * the replacement-policy ``touch`` is skipped outright when the
          policy inherits the base no-op (aged-lru);
        * the next warp step is pushed onto the engine's queue directly,
          one ``heappush`` under its sequence counter, as
          :meth:`~repro.sim.engine.Engine.schedule` would.
        """
        store = warp.store
        i = warp.index
        if store.state[i] == FINISHED:
            return
        block = warp.block
        if block.state is not BlockState.ACTIVE:
            # The block was context-switched out while this event was in
            # flight; the warp resumes when the block is reactivated.
            store.preempt(i)
            return
        sm: StreamingMultiprocessor = block.sm
        if sm.throttled:
            sm.park(warp)
            return
        engine = self.engine
        now = engine.now
        if sm.switch_busy_until > now:
            # The register file is busy with a context save/restore; the
            # SM cannot issue until it completes.
            engine.schedule_at(sm.switch_busy_until, warp.exec_event)
            return

        store.mem_wait[i] = False
        pc = store.pc[i]
        pages = store.op_pages[i][pc]
        (
            l1,
            l1_entries,
            l1_get,
            versions,
            versions_get,
            translate_after_l1_miss,
            l1_tlb_hit_cycles,
            l1d,
            l1d_sets,
            l1d_nsets,
            l2d,
            l2d_sets,
            l2d_nsets,
            l2d_assoc,
            l1_hit_cycles,
            l2_hit_cycles,
            memory_latency,
            access_penalty,
            alloc_time,
            dirty_add,
            touch,
        ) = self._sm_hot[sm.sm_id]
        latency = 0
        tlb_hits = 0
        missing = None
        for page in pages:
            # Empty version map (no shootdown has ever happened — e.g.
            # memory-adequate runs) skips the per-page lookup entirely.
            version = versions_get(page, 0) if versions else 0
            fill_version = l1_get(page)
            if fill_version is not None and fill_version >= version:
                l1_entries.move_to_end(page)
                tlb_hits += 1
                lat = l1_tlb_hit_cycles
            else:
                if fill_version is not None:
                    # Shootdown happened after this entry was filled.
                    del l1_entries[page]
                    l1.stale_hits += 1
                l1.misses += 1
                resident, lat, _level = translate_after_l1_miss(
                    page, l1, version, now
                )
                if not resident:
                    if missing is None:
                        missing = [page]
                    else:
                        missing.append(page)
            if lat > latency:
                latency = lat
        l1.hits += tlb_hits

        if missing is not None:
            an = self._an
            if an is not None:
                # Busy cycles leading up to the faulting access; charged
                # to ``replay`` when this issue is a post-stall re-issue.
                cycles = store.op_compute[i][pc]
                replay_pending = store.replay_pending
                if replay_pending[i]:
                    replay_pending[i] = False
                    an.attr.replay[sm.sm_id] += cycles
                else:
                    an.attr.compute[sm.sm_id] += cycles
            store.stall(i, missing, now)
            unique_fault_pages = self._unique_fault_pages
            raise_fault = self.runtime.raise_fault
            for page in missing:
                unique_fault_pages.add(page)
                raise_fault(page, warp)
            if self._runahead_enabled:
                self._runahead_probe(warp)
            sm.on_warp_stalled(warp)
            return

        if touch is not None:
            for page in pages:
                touch(page)
        store_pages = store.op_store_pages[i][pc]
        if store_pages:
            # Inlined GpuMemoryManager.mark_dirty (resident check + set
            # add) — two container ops instead of a method call per page.
            for page in store_pages:
                if page in alloc_time:
                    dirty_add(page)

        data_latency = 0
        lines = store.op_lines[i][pc]
        if lines:
            # Per-level miss counts instead of a per-line latency max: the
            # latencies are monotone in depth (their base constants are,
            # and the scale rounding preserves order), so the op's data
            # latency is just the deepest level any line touched.  Cache
            # counters flush once per op — same totals, no per-line
            # attribute read-modify-writes.
            l1_misses = 0
            l2_misses = 0
            for line in lines:
                entries = l1d_sets[line % l1d_nsets]
                if line in entries:
                    entries.remove(line)
                    entries.append(line)
                else:
                    l1_misses += 1
                    entries.append(line)
                    entries = l2d_sets[line % l2d_nsets]
                    if line in entries:
                        entries.move_to_end(line)
                    else:
                        l2_misses += 1
                        if len(entries) >= l2d_assoc:
                            entries.popitem(last=False)
                        entries[line] = None
            if l1_misses:
                l1d.misses += l1_misses
                l1_hits = len(lines) - l1_misses
                if l1_hits:
                    l1d.hits += l1_hits
                if l2_misses:
                    l2d.misses += l2_misses
                    data_latency = memory_latency
                else:
                    data_latency = l2_hit_cycles
                l2_hits = l1_misses - l2_misses
                if l2_hits:
                    l2d.hits += l2_hits
            else:
                l1d.hits += len(lines)
                data_latency = l1_hit_cycles
            data_latency += access_penalty
        total = latency + data_latency

        # Virtual Thread descheduling trigger: any access that leaves the
        # core (L2 or DRAM) counts as a long-latency operation.  The
        # forced-oversubscription check is the first branch of
        # sm.on_warp_mem_wait, hoisted here.
        if total >= l2_hit_cycles:
            store.mem_wait[i] = True
            if sm.forced_oversubscription:
                sm.on_warp_mem_wait(warp)

        an = self._an
        if an is not None:
            # Busy cycles of the retiring op: its issue compute plus the
            # translation + data latency it just paid.
            cycles = store.op_compute[i][pc] + total
            replay_pending = store.replay_pending
            if replay_pending[i]:
                replay_pending[i] = False
                an.attr.replay[sm.sm_id] += cycles
            else:
                an.attr.compute[sm.sm_id] += cycles
        pc += 1
        store.pc[i] = pc
        compute = store.op_compute[i]
        # Engine.schedule, inlined: one push under the engine's sequence
        # counter; ``total`` is a whole, non-negative cycle count.  The
        # warp stays RUNNING through the fused retire-and-issue; only its
        # last op is a transition.
        seq = engine._seq
        engine._seq = seq + 1
        if pc >= len(compute):
            store.finish(i)
            heappush(engine._queue, (now + total, seq, warp.complete_event))
        else:
            heappush(
                engine._queue, (now + total + compute[pc], seq, warp.exec_event)
            )

    def _runahead_probe(self, warp: SoAWarp) -> None:
        """Speculatively translate the stalled warp's next ops (§4.1 alt).

        Runahead issues translations only — no execution, no warp state
        change — so faults for upcoming accesses land in the fault buffer
        and ride the next batch.  The probed pages do not wake the warp
        (``warp=None``): when the warp replays, still-missing pages fault
        again and attach it then.
        """
        depth = self.config.runahead.depth
        self._runahead_probes += 1
        # Only independent addresses are probeable: destinations found
        # through loaded values are opaque to speculation.
        upcoming = warp.store.op_independent(warp.index)
        for pages in upcoming[warp.pc + 1 : warp.pc + 1 + depth]:
            for page in pages:
                if self.page_table.is_resident(page):
                    continue
                if self.runtime.page_has_waiters(page):
                    continue  # already being fetched / queued
                self._runahead_faults += 1
                self.runtime.raise_fault(page, None)

    def _warp_completed(self, warp: SoAWarp) -> None:
        warp.mem_wait = False
        self._warp_stall_cycles += warp.stalled_cycles
        block = warp.block
        if block.finished and block.state is not BlockState.FINISHED:
            self._dispatcher.block_finished(block)

    # ------------------------------------------------------------------
    # Runtime callbacks
    # ------------------------------------------------------------------
    def _wake_warps(self, page: int, now: int, waiters) -> None:
        """Page-arrival fan-out: one call wakes every waiter of ``page``.

        Per-warp *order* is load-bearing: a wake's side effects (block
        activation, context-switch decisions reading co-waiters' states)
        are observable to later waiters, so each waiter is notified and
        fully woken before the next is notified.
        """
        obs = self.obs
        an = self._an
        schedule_warp = self._schedule_warp
        for warp in waiters:
            store = warp.store
            i = warp.index
            if not store.page_arrived(i, page, now):
                continue
            stall_start = store.stall_start[i]
            block = warp.block
            if an is not None:
                # Decompose the just-finished stall interval in *every*
                # wake branch (active, suspended, inactive) so the bucket
                # totals tile stalled_cycles exactly.
                sm0 = block.sm
                an.record_stall(
                    sm0.sm_id if sm0 is not None else an.attr.num_sms,
                    stall_start,
                    now,
                )
                store.replay_pending[i] = True
            if block.state is BlockState.ACTIVE:
                sm: StreamingMultiprocessor = block.sm
                if sm.throttled:
                    sm.park(warp)
                    continue
                if obs is not None:
                    stalled = now - stall_start
                    obs.tracer.complete(
                        f"sm{sm.sm_id}",
                        "warp stall",
                        stall_start,
                        now,
                        warp=warp.warp_id,
                    )
                    obs.metrics.counter("sm.stall_cycles", sm=sm.sm_id).inc(
                        stalled
                    )
                    obs.metrics.histogram("sm.warp_stall_cycles", 1000).record(
                        stalled
                    )
                schedule_warp(warp, 0)
                continue
            store.suspend(i)
            if block.state is BlockState.INACTIVE and block.sm is not None:
                block.sm.on_block_ready(block)

    def _on_evict(self, page: int) -> None:
        self.caches.invalidate_page(page, self.page_shift)
        self.mmu.invalidate(page)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Merged engine + runtime state for stall/failure reports."""
        snapshot = self.engine.state_snapshot()
        snapshot.update(self.runtime.state_snapshot())
        snapshot["workload"] = self.workload.name
        snapshot["kernel"] = f"{self._kernel_index}/{len(self.workload.kernels)}"
        if self._dispatcher is not None:
            snapshot["blocks_unfinished"] = self._dispatcher.unfinished
        return snapshot

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _flush_obs(self, result: SimulationResult) -> None:
        """Final per-run aggregates into the session's metric registry."""
        metrics = self.obs.metrics
        name = result.workload
        metrics.gauge("sim.exec_cycles", workload=name).set(result.exec_cycles)
        metrics.gauge("sim.batches", workload=name).set(
            result.batch_stats.num_batches
        )
        metrics.gauge("sim.warp_stall_cycles", workload=name).set(
            result.warp_stall_cycles
        )
        metrics.gauge("sim.faults_raised", workload=name).set(result.faults_raised)
        metrics.gauge("fault_buffer.peak_occupancy").set(
            self.runtime.fault_buffer.peak_occupancy
        )
        for channel in (self.pcie.h2d, self.pcie.d2h):
            metrics.counter("dma.pages", channel=channel.name).inc(
                channel.pages_transferred
            )
            metrics.counter("dma.busy_cycles", channel=channel.name).inc(
                channel.busy_cycles
            )

    def _build_result(self) -> SimulationResult:
        stats = self.runtime.batch_stats
        l1_hits = sum(t.hits for t in self.mmu.l1_tlbs)
        l1_total = l1_hits + sum(t.misses for t in self.mmu.l1_tlbs)
        l1d_hits = sum(c.hits for c in self.caches.l1)
        l1d_total = l1d_hits + sum(c.misses for c in self.caches.l1)
        result = SimulationResult(
            workload=self.workload.name,
            exec_cycles=self._completion_cycles,
            batch_stats=stats,
            faults_raised=self.runtime.faults_raised,
            unique_fault_pages=len(self._unique_fault_pages),
            migrated_pages=stats.total_migrated_pages,
            prefetched_pages=stats.total_prefetched_pages,
            evicted_pages=self.memory.evictions,
            premature_refaults=self.memory.premature_refaults,
            premature_eviction_rate=self.memory.premature_eviction_rate,
            context_switches=self._context_switches,
            switch_cycles=self._switch_cycles,
            warp_stall_cycles=self._warp_stall_cycles,
            l1_tlb_hit_rate=l1_hits / l1_total if l1_total else 0.0,
            l2_tlb_hit_rate=self.mmu.l2_tlb.hit_rate,
            l1_hit_rate=l1d_hits / l1d_total if l1d_total else 0.0,
            l2_hit_rate=self.caches.l2.hit_rate,
            events_processed=self.engine.events_processed,
            extras={
                "fault_buffer_peak": self.runtime.fault_buffer.peak_occupancy,
                "fault_buffer_overflows": self.runtime.fault_buffer.overflow_faults,
                "stale_entries": self.runtime.stale_entries_dropped,
                "walker_walks": self.mmu.walker.walks,
                "to_extra_allowed": self.to_controller.extra_blocks_allowed,
                "runahead_probes": self._runahead_probes,
                "runahead_faults": self._runahead_faults,
            },
        )
        if self.chaos is not None:
            fb = self.runtime.fault_buffer
            result.extras["chaos.total_injections"] = self.chaos.total_injections
            for kind, count in sorted(self.chaos.injection_counts().items()):
                result.extras[f"chaos.{kind}"] = count
            result.extras["chaos.faults_dropped"] = fb.chaos_dropped
            result.extras["chaos.faults_duplicated"] = fb.chaos_duplicated
            result.extras["chaos.dma_stall_cycles"] = (
                self.pcie.h2d.stall_cycles + self.pcie.d2h.stall_cycles
            )
        if self.invariants is not None:
            result.extras["invariant_checks"] = self.invariants.checks_run
        if self.obs is not None:
            self._flush_obs(result)
        if self._an is not None:
            self._an.finish(result)
        return result


def simulate(workload: Workload, config: SimConfig) -> SimulationResult:
    """Convenience one-shot: build a simulator and run it."""
    return GpuUvmSimulator(workload, config).run()
