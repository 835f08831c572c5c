"""Unit tests for the TLB model."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_hit_rate():
    tlb = Tlb("t", 4, 4)
    assert tlb.hit_rate == 0.0
    tlb.fill(1, 0)
    tlb.lookup(1, 0)
    tlb.lookup(2, 0)
    assert tlb.hit_rate == pytest.approx(0.5)


def entries(tlb: Tlb) -> list[list[tuple[int, int]]]:
    """Every set's ``(page, fill_version)`` pairs, LRU first."""
    return [list(s.items()) for s in tlb._sets]


def counters(tlb: Tlb) -> tuple[int, int, int]:
    return tlb.hits, tlb.misses, tlb.stale_hits


@pytest.mark.parametrize(
    "round_trip",
    [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    ("size", "assoc"), [(64, 64), (1024, 32), (12, 4)], ids=["l1", "l2", "odd"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tlb_survives_copy(size, assoc, round_trip, data):
    """A checkpoint's copy of a TLB keeps every set's entries in LRU
    order, their fill versions and the counters, and goes on to behave
    like the original."""
    tlb = Tlb("t", size, assoc)
    num_sets = size // assoc
    # Pages crowding a few sets (hits, LRU evictions) and pages spread
    # over all sets; versions low enough that stale entries are common.
    pages = st.one_of(
        st.builds(
            lambda s, k: s + num_sets * k, st.integers(0, 1), st.integers(0, assoc)
        ),
        st.integers(0, 4 * size),
    )
    op = st.sampled_from(["fill", "lookup", "invalidate"])
    steps = st.lists(st.tuples(op, pages, st.integers(0, 3)), max_size=300)

    def run(tlbs, ops):
        for name, page, version in ops:
            if name == "fill":
                for t in tlbs:
                    t.fill(page, version)
            elif name == "lookup":
                assert len({t.lookup(page, version) for t in tlbs}) == 1
            else:
                for t in tlbs:
                    t.invalidate(page)

    run([tlb], data.draw(steps))
    twin = round_trip(tlb)
    assert type(twin) is Tlb
    assert entries(twin) == entries(tlb)
    assert counters(twin) == counters(tlb)
    run([twin, tlb], data.draw(steps))
    assert entries(twin) == entries(tlb)
    assert counters(twin) == counters(tlb)
