"""Unit tests for the page-lifetime monitor."""

import pytest

from repro.errors import ConfigError
from repro.core.lifetime import PageLifetimeMonitor
from repro.sim.engine import Engine
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.replacement import AgedLru


def make_monitor(period=100, threshold=0.2, smoothing=0.5):
    engine = Engine()
    memory = GpuMemoryManager(64, AgedLru())
    monitor = PageLifetimeMonitor(engine, memory, period, threshold, smoothing)
    return engine, memory, monitor


def feed_eviction(memory, page, alloc_at, evict_at):
    memory.allocate(page, alloc_at)
    memory.evict(page, evict_at)
    memory.release_frame(0)


def test_rejects_bad_config():
    engine = Engine()
    memory = GpuMemoryManager(4, AgedLru())
    with pytest.raises(ConfigError):
        PageLifetimeMonitor(engine, memory, 0)
    with pytest.raises(ConfigError):
        PageLifetimeMonitor(engine, memory, 100, threshold=1.5)


def test_no_samples_without_evictions():
    engine, _memory, monitor = make_monitor()
    monitor.start()
    engine.run(until=1000)
    assert monitor.windows_sampled == 0
    assert monitor.running_average is None


def test_first_window_sets_running_average():
    engine, memory, monitor = make_monitor(period=100)
    monitor.start()
    feed_eviction(memory, 1, alloc_at=0, evict_at=50)
    engine.run(until=150)
    assert monitor.windows_sampled == 1
    assert monitor.running_average == pytest.approx(50.0)


def test_drop_detection():
    engine, memory, monitor = make_monitor(period=100, threshold=0.2)
    seen = []
    monitor.on_sample = seen.append
    monitor.start()
    feed_eviction(memory, 1, 0, 80)  # window 1: lifetime 80
    engine.run(until=100)
    feed_eviction(memory, 2, 100, 110)  # window 2: lifetime 10 -> drop
    engine.run(until=200)
    assert seen == [False, True]
    assert monitor.drops_detected == 1


def test_window_mean_is_the_windows_lifetime_total_over_its_evictions():
    engine, memory, monitor = make_monitor(period=100, smoothing=1.0)
    monitor.start()
    memory.allocate(1, 0)
    memory.allocate(2, 50)
    memory.evict(1, 100)
    memory.evict(2, 100)
    assert (memory.evictions, memory.lifetime_total) == (2, 150)
    engine.run(until=100)
    assert monitor.running_average == 75.0  # (100 + 50) / 2
    for page, lifetime in ((3, 10), (4, 20), (5, 40)):
        memory.allocate(page, 200 - lifetime)
        memory.evict(page, 200)
    engine.run(until=200)
    # Smoothing 1.0 keeps only the latest window: (10 + 20 + 40) / 3.
    assert monitor.running_average == 70 / 3
    assert monitor.windows_sampled == 2


def test_stable_lifetimes_not_flagged():
    engine, memory, monitor = make_monitor(period=100, threshold=0.2)
    seen = []
    monitor.on_sample = seen.append
    monitor.start()
    feed_eviction(memory, 1, 0, 80)
    engine.run(until=100)
    feed_eviction(memory, 2, 100, 175)  # lifetime 75: within 20%
    engine.run(until=200)
    assert seen == [False, False]


def test_running_average_smooths():
    engine, memory, monitor = make_monitor(period=100)
    monitor.start()
    feed_eviction(memory, 1, 0, 100)  # avg 100
    engine.run(until=100)
    feed_eviction(memory, 2, 100, 150)  # window avg 50
    engine.run(until=200)
    # smoothing 0.5: 0.5*50 + 0.5*100 = 75.
    assert monitor.running_average == pytest.approx(75.0)


def test_stop_halts_sampling():
    engine, memory, monitor = make_monitor(period=100)
    monitor.start()
    engine.run(until=100)
    monitor.stop()
    feed_eviction(memory, 1, 100, 150)
    engine.run()
    assert monitor.windows_sampled == 0


def test_start_idempotent():
    engine, _memory, monitor = make_monitor(period=100)
    monitor.start()
    monitor.start()
    engine.run(until=50)
    # Only one tick chain: exactly one pending event.
    assert engine.pending_events == 1
