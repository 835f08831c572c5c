"""Invariant checker and watchdog: healthy runs pass, doctored state raises."""

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.errors import InvariantViolation, SimulationStalledError
from repro.invariants import InvariantChecker, Watchdog
from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# Stub components: minimal objects satisfying the checker's protocol, so
# each invariant can be violated surgically without a full simulator.
# ---------------------------------------------------------------------------
class StubMemory:
    def __init__(
        self,
        resident=(),
        free=(),
        capacity=8,
        pinned=(),
        unlimited=False,
    ):
        self._resident = frozenset(resident)
        self._free = tuple(free)
        self.capacity = capacity
        self._pinned = frozenset(pinned)
        self.unlimited = unlimited

    def resident_set(self):
        return self._resident

    def free_frame_ids(self):
        return self._free

    def pinned_pages(self):
        return self._pinned


class StubTable:
    def __init__(self, frame_map):
        self._map = dict(frame_map)

    def resident_set(self):
        return frozenset(self._map)

    def frame_map(self):
        return dict(self._map)

    def is_resident(self, page):
        return page in self._map


class StubBuffer:
    def __init__(self, entries=0, capacity=16, peak=0, total=0, duplicated=0):
        self._entries = entries
        self.capacity = capacity
        self.peak_occupancy = peak
        self.total_faults = total
        self.chaos_duplicated = duplicated

    def __len__(self):
        return self._entries


class StubRuntime:
    def __init__(
        self,
        busy=False,
        open_batch=None,
        remaining=0,
        waiting=(),
        pending=0,
        buffer=None,
    ):
        self.busy = busy
        self.open_batch_index = open_batch
        self.remaining_arrivals = remaining
        self._waiting = frozenset(waiting)
        self.pending_frame_count = pending
        self.fault_buffer = buffer if buffer is not None else StubBuffer()

    def waiting_pages(self):
        return self._waiting


def checker(memory, table, runtime=None):
    return InvariantChecker(memory=memory, page_table=table, runtime=runtime)


def healthy():
    """Two resident pages, two free frames, four in flight."""
    memory = StubMemory(resident=(0x1000, 0x2000), free=(5, 6), capacity=8)
    table = StubTable({0x1000: 0, 0x2000: 1})
    runtime = StubRuntime(buffer=StubBuffer(entries=2, total=5, peak=3))
    return memory, table, runtime


class TestInvariantChecker:
    def test_healthy_state_passes(self):
        memory, table, runtime = healthy()
        chk = checker(memory, table, runtime)
        chk.check(where="test")
        assert chk.checks_run == 1

    def test_residency_disagreement(self):
        memory = StubMemory(resident=(0x1000,), free=(1,), capacity=2)
        table = StubTable({0x1000: 0, 0x2000: 1})
        with pytest.raises(InvariantViolation, match="residency-agreement"):
            checker(memory, table).check()

    def test_duplicate_frames(self):
        memory = StubMemory(resident=(0x1000, 0x2000), free=(), capacity=2)
        table = StubTable({0x1000: 0, 0x2000: 0})
        with pytest.raises(InvariantViolation, match="unique-frames"):
            checker(memory, table).check()

    def test_mapped_frame_on_free_list(self):
        memory = StubMemory(resident=(0x1000,), free=(0,), capacity=2)
        table = StubTable({0x1000: 0})
        with pytest.raises(InvariantViolation, match="unique-frames"):
            checker(memory, table).check()

    def test_frame_overcommit(self):
        memory = StubMemory(resident=(0x1000, 0x2000), free=(2, 3), capacity=3)
        table = StubTable({0x1000: 0, 0x2000: 1})
        with pytest.raises(InvariantViolation, match="frame-accounting"):
            checker(memory, table).check()

    def test_in_flight_frames_allowed_mid_run_but_not_at_quiescence(self):
        memory = StubMemory(resident=(0x1000,), free=(1,), capacity=3)
        table = StubTable({0x1000: 0})
        chk = checker(memory, table)
        chk.check()  # one frame in flight: fine mid-run
        with pytest.raises(InvariantViolation, match="in flight"):
            chk.check(quiescent=True)

    def test_pending_frames_exceed_in_flight(self):
        memory = StubMemory(resident=(0x1000,), free=(1,), capacity=3)
        table = StubTable({0x1000: 0})
        runtime = StubRuntime(pending=2)  # only 1 frame is unaccounted
        with pytest.raises(InvariantViolation, match="pending"):
            checker(memory, table, runtime).check()

    def test_pinned_page_evicted(self):
        memory = StubMemory(
            resident=(0x1000,), free=(1,), capacity=2, pinned=(0x9000,)
        )
        table = StubTable({0x1000: 0})
        with pytest.raises(InvariantViolation, match="pinned"):
            checker(memory, table).check()

    def test_batch_pairing_busy_without_batch(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(busy=True, open_batch=None)
        with pytest.raises(InvariantViolation, match="batch-pairing"):
            checker(memory, table, runtime).check()

    def test_negative_arrivals(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(busy=True, open_batch=0, remaining=-1)
        with pytest.raises(InvariantViolation, match="negative"):
            checker(memory, table, runtime).check()

    def test_idle_with_arrivals_outstanding(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(busy=False, remaining=3)
        with pytest.raises(InvariantViolation, match="arrivals outstanding"):
            checker(memory, table, runtime).check()

    def test_sleeping_waiters(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(waiting=(0x1000,))  # 0x1000 is resident
        with pytest.raises(InvariantViolation, match="no-sleeping-waiters"):
            checker(memory, table, runtime).check()

    def test_fault_buffer_over_capacity(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(buffer=StubBuffer(entries=20, capacity=16))
        with pytest.raises(InvariantViolation, match="over capacity"):
            checker(memory, table, runtime).check()

    def test_fault_buffer_counters_inconsistent(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(buffer=StubBuffer(entries=5, total=2))
        with pytest.raises(InvariantViolation, match="counters"):
            checker(memory, table, runtime).check()

    def test_chaos_duplicates_balance_the_counters(self):
        memory, table, _ = healthy()
        runtime = StubRuntime(
            buffer=StubBuffer(entries=5, total=2, duplicated=3)
        )
        checker(memory, table, runtime).check()  # no violation

    def test_violation_names_witnesses(self):
        memory = StubMemory(resident=(0x1000,), free=(1,), capacity=2)
        table = StubTable({0x1000: 0, 0x2000: 1})
        with pytest.raises(InvariantViolation) as excinfo:
            checker(memory, table).check(where="unit test")
        message = str(excinfo.value)
        assert "unit test" in message and "0x2000" in message


class TestEndToEnd:
    @pytest.mark.parametrize(
        "preset", [systems.BASELINE, systems.TO_UE, systems.ETC]
    )
    def test_healthy_systems_pass_invariant_checked_runs(self, preset):
        workload = build_workload("BFS-TTC", scale="tiny", seed=0)
        config = preset.configure(workload, ratio=0.5, check_invariants=True)
        result = GpuUvmSimulator(workload, config).run()
        assert result.extras["invariant_checks"] > 0

    def test_checked_at_batch_boundaries_and_quiescence(self):
        workload = build_workload("KCORE", scale="tiny", seed=0)
        config = systems.BASELINE.configure(
            workload, ratio=0.5, check_invariants=True
        )
        sim = GpuUvmSimulator(workload, config)
        result = sim.run()
        # Begin + end per completed batch, plus the quiescence check (and
        # possibly begins whose drain came up all-stale, opening no batch).
        assert (
            result.extras["invariant_checks"]
            >= 2 * result.batch_stats.num_batches + 1
        )

    @pytest.mark.parametrize("preset", [systems.BASELINE, systems.TO_UE])
    def test_warp_validator_sees_the_whole_machine(self, preset):
        """Every warp state change goes through the validating store, so
        the checker counts issues, wakes and finishes, not only stalls;
        every warp of every launch finishes exactly once."""
        workload = build_workload("BFS-TTC", scale="tiny", seed=0)
        config = preset.configure(workload, ratio=0.5, check_invariants=True)
        sim = GpuUvmSimulator(workload, config)
        sim.run()
        counts = sim.invariants.transition_counts["warp"]
        assert {"issue", "stall", "wake", "finish"} <= counts.keys()
        assert counts["finish"] == sum(k.num_warps for k in workload.kernels)
        assert all(warp.finished for warp in sim._warp_store.warps)


class TestWatchdog:
    def test_no_progress_detected(self):
        engine = Engine()

        def spin():
            engine.schedule(0, spin)  # same-cycle cascade, clock frozen

        engine.schedule(0, spin)
        engine.watchdog = Watchdog(stall_events=100)
        with pytest.raises(SimulationStalledError, match="stopped advancing"):
            engine.run()

    def test_progress_resets_the_stall_counter(self):
        engine = Engine()
        remaining = [500]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1, tick)  # clock advances every event

        engine.schedule(0, tick)
        engine.watchdog = Watchdog(stall_events=100)
        engine.run()  # must not raise
        assert remaining[0] == 0

    @staticmethod
    def _timed_out_run(snapshot):
        """Drive an engine whose wall budget is already spent: the first
        event arms the deadline, the second samples it."""
        engine = Engine()
        for t in (1, 2, 3):
            engine.schedule_at(t, lambda: None)
        engine.watchdog = Watchdog(
            wall_budget_seconds=1e-9, wall_check_interval=1, snapshot=snapshot
        )
        with pytest.raises(SimulationStalledError, match="wall-clock") as exc:
            engine.run()
        assert engine.events_processed == 2
        return exc.value

    def test_wall_clock_budget(self):
        exc = self._timed_out_run(lambda: {"probe": 17})
        assert "probe" in str(exc)
        assert exc.context["cycle"] == 2

    def test_snapshot_failure_never_masks_the_stall(self):
        def broken():
            raise RuntimeError("diagnostics down")

        exc = self._timed_out_run(broken)
        assert "snapshot_error" in str(exc)

    def test_snapshot_failure_never_masks_a_no_progress_stall(self):
        def broken():
            raise RuntimeError("diagnostics down")

        engine = Engine()

        def spin():
            engine.schedule(0, spin)

        engine.schedule(0, spin)
        engine.watchdog = Watchdog(stall_events=5, snapshot=broken)
        with pytest.raises(SimulationStalledError, match="stopped advancing") as exc:
            engine.run()
        assert "snapshot_error" in str(exc.value)
        assert engine.events_processed == 6

    def test_invalid_stall_threshold(self):
        with pytest.raises(ValueError):
            Watchdog(stall_events=0)

    def test_simulator_wall_budget_raises_with_diagnostics(self):
        workload = build_workload("BFS-TTC", scale="tiny", seed=0)
        config = systems.BASELINE.configure(workload, ratio=0.5)
        sim = GpuUvmSimulator(workload, config)
        with pytest.raises(SimulationStalledError, match="wall-clock") as exc:
            sim.run(wall_budget_seconds=1e-12)
        # The diagnostic snapshot rides in the message.
        assert "events_processed" in str(exc.value)
