"""Unit tests for the TLB model."""

import pytest

from repro.errors import ConfigError
from repro.vm.tlb import Tlb


def test_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        Tlb("t", 10, 3)


def test_miss_then_hit():
    tlb = Tlb("t", 4, 4)
    assert not tlb.lookup(1, 0)
    tlb.fill(1, 0)
    assert tlb.lookup(1, 0)
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_lru_eviction_fully_associative():
    tlb = Tlb("t", 2, 2)
    tlb.fill(1, 0)
    tlb.fill(2, 0)
    tlb.lookup(1, 0)  # 1 becomes MRU
    tlb.fill(3, 0)    # evicts 2
    assert tlb.lookup(1, 0)
    assert not tlb.lookup(2, 0)
    assert tlb.lookup(3, 0)


def test_set_associativity_separates_pages():
    tlb = Tlb("t", 4, 2)  # 2 sets
    # Pages 0 and 2 map to set 0; pages 1 and 3 to set 1.
    tlb.fill(0, 0)
    tlb.fill(2, 0)
    tlb.fill(4, 0)  # set 0 again: evicts LRU (page 0)
    assert not tlb.lookup(0, 0)
    assert tlb.lookup(2, 0)
    assert tlb.lookup(4, 0)


def test_version_shootdown_invalidates_stale_entries():
    tlb = Tlb("t", 4, 4)
    tlb.fill(1, 0)
    assert not tlb.lookup(1, 1)  # version moved on: stale
    assert tlb.stale_hits == 1
    # The stale entry was dropped.
    assert tlb.occupancy == 0


def test_refill_updates_version():
    tlb = Tlb("t", 4, 4)
    tlb.fill(1, 0)
    tlb.fill(1, 5)
    assert tlb.lookup(1, 5)


def test_explicit_invalidate():
    tlb = Tlb("t", 4, 4)
    tlb.fill(1, 0)
    tlb.invalidate(1)
    assert not tlb.lookup(1, 0)


def test_flush():
    tlb = Tlb("t", 4, 4)
    for p in range(4):
        tlb.fill(p, 0)
    tlb.flush()
    assert tlb.occupancy == 0


def test_hit_rate():
    tlb = Tlb("t", 4, 4)
    assert tlb.hit_rate == 0.0
    tlb.fill(1, 0)
    tlb.lookup(1, 0)
    tlb.lookup(2, 0)
    assert tlb.hit_rate == pytest.approx(0.5)
