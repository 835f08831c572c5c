"""Property-based tests for the core data structures.

The engine section replays randomized event scripts — interleaved
``schedule`` / ``schedule_at`` / ``run(until=)`` / ``run(max_events=)`` /
``step()`` calls with callbacks spawning children — through
:class:`~repro.sim.Engine`, asserting the determinism contract on the
full trace: nondecreasing time, FIFO within a cycle, nothing lost
(``tests/test_equivalence_golden.py`` locks full-simulation output).
"""

import itertools
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.stats import Histogram
from repro.uvm.fault_buffer import FaultBuffer, FaultEntry
from repro.uvm.replacement import AccessLru, AgedLru
from repro.vm.address_space import AddressSpace
from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb


@pytest.mark.parametrize("engine_cls", [Engine])
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
def test_engine_fires_in_nondecreasing_time_order(engine_cls, delays):
    engine = engine_cls()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


#: Delay palette: heavy same/near-cycle traffic plus a far-future tail,
#: so bounded runs stop both inside and ahead of dense stretches.
DELAY_CHOICES = [0, 0, 1, 1, 2, 3, 7, 17, 64, 300, 1200, 5000, 20000]

#: A script is a sequence of top-level driver operations.
SCRIPT_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(st.sampled_from(DELAY_CHOICES), min_size=1, max_size=10),
        ),
        st.tuples(st.just("until"), st.integers(min_value=0, max_value=6000)),
        st.tuples(st.just("max"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=10,
)


#: Hard cap on events spawned per script replay.  Each fired event
#: spawns ``randint(0, 2)`` children — mean exactly 1, a *critical*
#: branching process whose total progeny is heavy-tailed — so without a
#: cap an unlucky example runs for minutes.
_SPAWN_CAP = 2000


def _apply_script(engine, ops, spawn_seed: int) -> tuple[list, dict]:
    """Apply a script to ``engine``; return its trace and schedule log.

    The trace holds ``(id, fire time)`` per fired event plus a
    ``("checkpoint", now, pending)`` entry after each driver op; the log
    maps each event id to ``(due time, schedule order)``.
    """
    ids = itertools.count()
    trace: list = []
    scheduled: dict = {}

    def spawn(eid: int):
        def fire():
            trace.append((eid, engine.now))
            rng = random.Random((spawn_seed << 20) ^ eid)
            for _ in range(rng.randint(0, 2)):
                delay = rng.choice(DELAY_CHOICES)
                child = next(ids)
                if child >= _SPAWN_CAP:
                    continue
                scheduled[child] = (engine.now + delay, len(scheduled))
                if rng.random() < 0.8:
                    engine.schedule(delay, spawn(child))
                else:
                    engine.schedule_at(engine.now + delay, spawn(child))

        return fire

    for op, arg in ops:
        if op == "batch":
            for delay in arg:
                eid = next(ids)
                scheduled[eid] = (engine.now + delay, len(scheduled))
                engine.schedule(delay, spawn(eid))
        elif op == "until":
            engine.run(until=engine.now + arg)
        elif op == "max":
            engine.run(max_events=arg)
        else:
            for _ in range(arg):
                engine.step()
        trace.append(("checkpoint", engine.now, engine.pending_events))
    engine.run()
    return trace, scheduled


@settings(max_examples=60, deadline=None)
@given(ops=SCRIPT_OPS, spawn_seed=st.integers(min_value=0, max_value=2**20))
def test_engine_replays_scripts_in_contract_order(ops, spawn_seed):
    engine = Engine()
    trace, scheduled = _apply_script(engine, ops, spawn_seed)
    fired = [entry for entry in trace if entry[0] != "checkpoint"]
    # Every event fires exactly once, at its due time.
    assert sorted(eid for eid, _ in fired) == sorted(scheduled)
    assert all(now == scheduled[eid][0] for eid, now in fired)
    # Nondecreasing time, FIFO by schedule order within a cycle.
    keys = [scheduled[eid] for eid, _ in fired]
    assert keys == sorted(keys)
    # The clock never runs backwards across bounded runs and steps.
    clock = [entry[1] for entry in trace]
    assert clock == sorted(clock)
    assert engine.events_processed == len(fired)
    assert engine.pending_events == 0


@pytest.mark.parametrize("engine_cls", [Engine])
@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=150))
def test_fifo_within_cycle_matches_schedule_order(engine_cls, times):
    engine = engine_cls()
    order = []
    for i, t in enumerate(times):
        engine.schedule_at(t, lambda t=t, i=i: order.append((t, i)))
    engine.run()
    # sorted() is stable: equal times keep schedule order.
    expected = [(t, i) for i, t in sorted(enumerate(times), key=lambda e: e[1])]
    assert order == expected


class _TaggedEvent:
    __slots__ = ("kind",)

    def __init__(self, tag: int):
        self.kind = f"tagged.{tag}"

    def __call__(self):
        pass


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(st.sampled_from(DELAY_CHOICES), min_size=2, max_size=40),
    cut=st.integers(min_value=1, max_value=39),
)
def test_state_snapshots_agree_after_bounded_run(delays, cut):
    """The mid-run preview names the next events the schedule predicts."""
    engine = Engine()
    for i, delay in enumerate(delays):
        engine.schedule(delay, _TaggedEvent(i))
    fired = min(cut, len(delays) - 1)
    engine.run(max_events=fired)
    # Firing order: by due time, schedule order within a cycle.
    order = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    snapshot = engine.state_snapshot()
    assert snapshot["engine_now"] == delays[order[fired - 1]]
    assert snapshot["events_processed"] == fired
    assert snapshot["pending_events"] == len(delays) - fired
    assert snapshot["next_events"] == [
        (delays[i], f"tagged.{i}") for i in order[fired : fired + 4]
    ]


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1))
def test_histogram_mean_matches_samples(samples):
    hist = Histogram("h", 7)
    for sample in samples:
        hist.record(sample)
    assert abs(hist.mean - sum(samples) / len(samples)) < 1e-9
    assert hist.count == len(samples)
    assert sum(hist.buckets.values()) == len(samples)


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "remove"]),
                  st.integers(min_value=0, max_value=15)),
        max_size=200,
    )
)
def test_access_lru_matches_reference_model(operations):
    """AccessLru behaves exactly like an OrderedDict-based reference."""
    lru = AccessLru()
    reference: OrderedDict[int, None] = OrderedDict()
    for op, page in operations:
        if op == "insert":
            lru.insert(page)
            if page in reference:
                reference.move_to_end(page)
            else:
                reference[page] = None
        elif op == "touch":
            lru.touch(page)
            if page in reference:
                reference.move_to_end(page)
        elif op == "remove" and page in reference:
            lru.remove(page)
            del reference[page]
    assert lru.pages_in_order() == list(reference)


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "touch"]),
                  st.integers(min_value=0, max_value=15)),
        max_size=200,
    )
)
def test_aged_lru_ignores_touches(operations):
    """AgedLru order is determined solely by the insert sequence."""
    lru = AgedLru()
    inserts_only = AgedLru()
    for op, page in operations:
        if op == "insert":
            lru.insert(page)
            inserts_only.insert(page)
        else:
            lru.touch(page)
    assert lru.pages_in_order() == inserts_only.pages_in_order()


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300))
def test_tlb_never_exceeds_capacity_and_hits_after_fill(pages):
    tlb = Tlb("t", 16, 4)
    for page in pages:
        if not tlb.lookup(page, 0):
            tlb.fill(page, 0)
            assert tlb.lookup(page, 0)
        assert tlb.occupancy <= 16


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=100))
def test_fault_buffer_drain_returns_exactly_what_fit(pages):
    buf = FaultBuffer(16)
    accepted = []
    for page in pages:
        if buf.push(FaultEntry(page, None, 0)):
            accepted.append(page)
    drained = buf.drain()
    assert [e.page for e in drained] == accepted[:16]
    assert buf.empty


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.integers(min_value=0, max_value=30)),
        max_size=60,
    )
)
def test_page_table_maps_and_unmaps_consistently(pairs):
    pt = PageTable()
    mapped = {}
    for page, frame in pairs:
        if page in mapped:
            freed = pt.unmap(page)
            assert freed == mapped.pop(page)
        else:
            pt.map(page, frame)
            mapped[page] = frame
    assert pt.resident_set() == frozenset(mapped)
    assert pt.unmaps == pt.version


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=5000),
                  st.sampled_from([1, 4, 8, 64])),
        min_size=1,
        max_size=12,
    )
)
def test_address_space_segments_never_overlap(allocs):
    vas = AddressSpace(4096)
    for i, (count, width) in enumerate(allocs):
        vas.allocate(f"seg{i}", count, width)
    segments = vas.segments
    for a in segments:
        for b in segments:
            if a is not b:
                assert a.end <= b.base or b.end <= a.base
    # Page sets of distinct segments are disjoint.
    covered = set()
    for seg in segments:
        pages = set(seg.page_range(vas.page_shift))
        assert not (pages & covered)
        covered |= pages
    assert len(covered) == vas.total_pages
