"""What observability and checkpointing cost when on -- informational.

The off-mode guarantee (each disabled hook family under 2% of the work
a run does) is gated deterministically by ``bench_guard_share.py``,
which counts the guard lines' own bytecodes.  This module times what
cannot be counted: the full-instrumentation ratio, checkpoint write and
restore latency, and one cross-check of the gates' opcode share against
wall-clock time.  None of them has a threshold -- ``full`` mode is
*supposed* to pay for its data.
"""

from __future__ import annotations

import importlib.util
import pathlib
import statistics
import time

from bench_guard_share import CELL, opcount

from repro import GpuUvmSimulator, build_workload, obs, systems
from repro.sim import engine as engine_module


def timed_tiny_run(obs_session) -> tuple[float, int]:
    """(wall seconds, engine events) for one KCORE tiny run."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config, obs=obs_session)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.engine.events_processed


def _timed_tiny_sim(checkpoint_dir=None, every=1):
    """Like :func:`timed_tiny_run` but returns the simulator too."""
    workload = build_workload("KCORE", scale="tiny", seed=0)
    config = systems.by_name("TO+UE").configure(workload)
    sim = GpuUvmSimulator(workload, config)
    if checkpoint_dir is not None:
        sim.enable_checkpoints(checkpoint_dir, every=every)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, sim, result


def test_checkpoint_write_restore_latency_informational(tmp_path):
    """Measure (and print) checkpoint write/restore latency — no
    threshold, but the resumed run must stay bit-identical."""
    from repro.checkpoint import restore_checkpoint

    off_seconds, _, baseline = _timed_tiny_sim()
    on_seconds, sim, result = _timed_tiny_sim(tmp_path, every=1)
    assert result == baseline, "checkpointing changed the simulation"
    assert sim.checkpoint_writes > 0

    per_write = sim.checkpoint_write_seconds / sim.checkpoint_writes
    size = pathlib.Path(sim.last_checkpoint_path).stat().st_size

    start = time.perf_counter()
    restored = restore_checkpoint(sim.last_checkpoint_path)
    restore_seconds = time.perf_counter() - start
    resumed = restored.resume()
    assert resumed == baseline, "restored run diverged"

    print(
        f"\ncheckpointing every batch: {sim.checkpoint_writes} writes, "
        f"{per_write * 1e3:.2f} ms/write ({size / 1024:.0f} KiB file), "
        f"restore {restore_seconds * 1e3:.2f} ms; "
        f"run {on_seconds * 1e3:.0f} ms vs off {off_seconds * 1e3:.0f} ms "
        f"({on_seconds / off_seconds:.2f}x with every-batch writes)"
    )


def test_full_mode_ratio_informational():
    """Measure (and print) what full instrumentation costs — no threshold."""
    off_seconds, _ = timed_tiny_run(None)
    full = obs.Observability("full")
    full_seconds, _ = timed_tiny_run(full)
    ratio = full_seconds / off_seconds
    print(
        f"\nfull-mode run: {full_seconds * 1e3:.0f} ms vs off "
        f"{off_seconds * 1e3:.0f} ms ({ratio:.2f}x, "
        f"{len(full.tracer.events):,} trace events, "
        f"{len(full.metrics)} metric series)"
    )
    assert len(full.tracer.events) > 0


#: Extra copies of the engine's ``count_event`` guard planted after
#: every event for the timed cross-check below.
PLANTED_GUARDS = 32

#: Timed (unplanted, planted) pairs behind the cross-check.
PAIRS = 21


def _planted_engine_class(tmp_path) -> type:
    """:class:`repro.sim.Engine` built from the engine's own source with
    ``PLANTED_GUARDS`` copies of its ``count_event`` guard after every
    event (its ``if`` never fires with obs off)."""
    guard = (
        "                    if count_event is not None:\n"
        "                        count_event(callback)\n"
    )
    anchor = "                    callback()\n" + guard
    source = pathlib.Path(engine_module.__file__).read_text()
    assert source.count(anchor) == 1, "the engine loop's count_event guard moved"
    path = tmp_path / "planted_engine.py"
    path.write_text(source.replace(anchor, anchor + guard * PLANTED_GUARDS))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Engine


def _cell_sim(engine_class=None):
    """A fresh simulator for the guard gates' cell, optionally running
    on another engine class."""
    preset, name, scale, ratio = CELL.split("|")
    workload = build_workload(name, scale=scale, seed=0)
    config = systems.by_name(preset).configure(workload, ratio=float(ratio))
    sim = GpuUvmSimulator(workload, config)
    if engine_class is not None:
        sim.engine.__class__ = engine_class
    return sim


def _timed(engine_class=None) -> float:
    sim = _cell_sim(engine_class)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def test_planted_guard_time_share_informational(tmp_path):
    """Cross-check the guard gates' opcode share against time.

    The gates' cell runs on the real engine and on one with
    ``PLANTED_GUARDS`` extra ``count_event`` guards after every event.
    Prints the planted guards' share of the run's opcodes beside their
    share of its wall-clock time.  A guard is a load and a jump, cheaper
    than the average opcode, so the opcode share is expected to be the
    larger one.
    """
    assert obs.current() is None, "a leaked obs session would turn hooks on"
    planted_class = _planted_engine_class(tmp_path)
    _cell_sim().run()  # warm the workload's cached per-op tuples
    opcodes, results = {}, {}
    for engine_class in (None, planted_class):
        sim = _cell_sim(engine_class)
        with opcount.OpcodeCounter() as counter:
            results[engine_class] = sim.run()
        opcodes[engine_class] = counter.total
    assert results[planted_class] == results[None], "a planted guard fired"
    events = sim.engine.events_processed
    extra = opcodes[planted_class] - opcodes[None]
    assert extra > 0

    base, diffs = [], []
    for pair in range(PAIRS):
        if pair % 2:
            planted = _timed(planted_class)
            base.append(_timed())
        else:
            base.append(_timed())
            planted = _timed(planted_class)
        diffs.append(planted - base[-1])
    t_base = statistics.median(base)
    diff = statistics.median(diffs)
    quartiles = statistics.quantiles(diffs, n=4)

    print(
        f"\n{PLANTED_GUARDS} planted guards: {extra / events:.1f} opcodes "
        f"per event, {extra / opcodes[planted_class]:.2%} of the run's "
        f"opcodes; {diff * 1e3:+.2f} ms on {t_base * 1e3:.1f} ms, "
        f"{diff / (t_base + diff):.2%} of its time (median of {PAIRS} "
        f"pairs; per-pair quartiles {quartiles[0] * 1e3:+.2f} / "
        f"{quartiles[2] * 1e3:+.2f} ms)"
    )
