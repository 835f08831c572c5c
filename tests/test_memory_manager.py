"""Unit tests for the GPU memory manager."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.uvm.memory_manager import GpuMemoryManager
from repro.uvm.replacement import AgedLru


def make(frames=4):
    return GpuMemoryManager(frames, AgedLru())


def test_rejects_zero_frames():
    with pytest.raises(ConfigError):
        make(0)


def test_unlimited_mode():
    mm = GpuMemoryManager(None, AgedLru())
    assert mm.unlimited
    frames = {mm.allocate(p, now=0) for p in range(100)}
    assert len(frames) == 100  # distinct frames forever


def test_allocate_assigns_distinct_frames():
    mm = make(4)
    frames = {mm.allocate(p, 0) for p in range(4)}
    assert frames == {0, 1, 2, 3}
    assert mm.free_frames == 0


def test_allocate_when_full_raises():
    mm = make(1)
    mm.allocate(1, 0)
    with pytest.raises(SimulationError):
        mm.allocate(2, 0)


def test_double_allocate_raises():
    mm = make(2)
    mm.allocate(1, 0)
    with pytest.raises(SimulationError):
        mm.allocate(1, 0)


def test_evict_release_allocate_cycle():
    mm = make(1)
    mm.allocate(1, now=0)
    lifetime = mm.evict(1, now=500)
    assert lifetime == 500
    mm.release_frame(0)
    mm.allocate(2, now=600)
    assert mm.is_resident(2)
    assert not mm.is_resident(1)


def test_victim_is_lru_head():
    mm = make(3)
    for p in (10, 11, 12):
        mm.allocate(p, 0)
    assert mm.pick_victim() == 10


def test_pinned_page_cannot_be_evicted():
    mm = make(2)
    mm.allocate(1, 0)
    mm.pin(1)
    with pytest.raises(SimulationError):
        mm.evict(1, 10)
    assert not mm.has_victim()
    mm.unpin(1)
    assert mm.has_victim()


def test_evict_nonresident_raises():
    with pytest.raises(SimulationError):
        make().evict(9, 0)


def test_premature_eviction_tracking():
    mm = make(1)
    mm.allocate(1, 0)
    mm.on_fault(1)  # first fault: page never evicted -> not premature
    assert mm.premature_refaults == 0
    mm.evict(1, 100)
    mm.release_frame(0)
    mm.on_fault(1)  # refault after eviction -> premature
    assert mm.premature_refaults == 1
    assert mm.premature_eviction_rate == pytest.approx(1.0)


def test_premature_rate_zero_without_evictions():
    assert make().premature_eviction_rate == 0.0
