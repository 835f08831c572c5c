"""Tests for the span/instant tracer: nesting, scopes, drop accounting."""

import pytest

from repro.obs.tracer import Tracer


class TestSpans:
    def test_complete_span(self):
        tr = Tracer()
        tr.complete("batches", "batch 0", 100, 250, pages=3)
        (event,) = tr.events
        assert event.ph == "X"
        assert event.ts == 100
        assert event.dur == 150
        assert event.args == {"pages": 3}

    def test_complete_clamps_negative_duration(self):
        tr = Tracer()
        tr.complete("t", "backwards", 50, 20)
        assert tr.events[0].dur == 0

    def test_begin_end_nesting(self):
        tr = Tracer()
        tr.begin("t", "outer", 0)
        tr.begin("t", "inner", 10)
        assert tr.open_spans("t") == ["outer", "inner"]
        tr.end("t", 20)
        assert tr.open_spans("t") == ["outer"]
        tr.end("t", 30)
        assert tr.open_spans("t") == []
        phases = [(e.ph, e.name, e.ts) for e in tr.events]
        assert phases == [
            ("B", "outer", 0),
            ("B", "inner", 10),
            ("E", "inner", 20),
            ("E", "outer", 30),
        ]

    def test_end_without_begin_raises(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="without begin"):
            tr.end("t", 5)

    def test_nesting_is_per_track(self):
        tr = Tracer()
        tr.begin("a", "span-a", 0)
        tr.begin("b", "span-b", 1)
        tr.end("a", 2)  # closes span-a, not span-b
        assert tr.open_spans("a") == []
        assert tr.open_spans("b") == ["span-b"]

    def test_instant(self):
        tr = Tracer()
        tr.instant("eviction", "evict", 42, page="0x10")
        (event,) = tr.events
        assert event.ph == "i"
        assert event.dur is None
        assert event.args == {"page": "0x10"}

    def test_events_keep_record_order(self):
        tr = Tracer()
        tr.instant("a", "first", 10)
        tr.complete("b", "second", 0, 5)
        tr.instant("a", "third", 20)
        assert [e.name for e in tr.events] == ["first", "second", "third"]


class TestScopesAndTracks:
    def test_scope_zero_is_wall_harness(self):
        tr = Tracer()
        assert tr.scopes()[0] == ("harness", "wall")
        assert tr.scope == 0

    def test_open_and_set_scope(self):
        tr = Tracer()
        sid = tr.open_scope("BFS-TWC")
        assert tr.scopes()[sid] == ("BFS-TWC", "sim")
        previous = tr.set_scope(sid)
        assert previous == 0
        tr.instant("uvm", "x", 1)
        assert tr.events[0].scope == sid

    def test_set_unknown_scope_raises(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.set_scope(7)

    def test_open_scope_rejects_unknown_domain(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.open_scope("x", domain="gpu")

    def test_tids_assigned_in_first_use_order_per_scope(self):
        tr = Tracer()
        sid = tr.open_scope("run")
        tr.set_scope(sid)
        tr.instant("batches", "a", 0)
        tr.instant("dma.h2d", "b", 1)
        tr.instant("batches", "c", 2)
        assert tr.tracks()[(sid, "batches")] == 0
        assert tr.tracks()[(sid, "dma.h2d")] == 1

    def test_same_track_name_distinct_across_scopes(self):
        tr = Tracer()
        s1 = tr.open_scope("run1")
        s2 = tr.open_scope("run2")
        tr.set_scope(s1)
        tr.instant("batches", "x", 0)
        tr.set_scope(s2)
        tr.instant("batches", "y", 0)
        assert (s1, "batches") in tr.tracks()
        assert (s2, "batches") in tr.tracks()
        assert tr.of_track("batches", scope=s1)[0].name == "x"
        assert tr.of_track("batches", scope=s2)[0].name == "y"
        assert tr.track_names() == {"batches"}


class TestWallHelpers:
    def test_wall_span_records_in_scope_zero(self):
        tr = Tracer()
        sid = tr.open_scope("run")
        tr.set_scope(sid)  # wall helpers must still hit scope 0
        with tr.wall_span("experiments", "cell", group="fig11"):
            pass
        (event,) = tr.events
        assert event.scope == 0
        assert event.ph == "X"
        assert event.dur >= 0
        assert event.args == {"group": "fig11"}

    def test_wall_span_records_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.wall_span("experiments", "boom"):
                raise RuntimeError("boom")
        assert len(tr.events) == 1

    def test_wall_instant(self):
        tr = Tracer()
        tr.wall_instant("experiments", "marker")
        assert tr.events[0].scope == 0
        assert tr.events[0].ph == "i"


class TestRingBuffer:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_drop_accounting(self):
        tr = Tracer(max_events=3)
        for i in range(10):
            tr.instant("t", f"e{i}", i)
        assert len(tr) == 3
        assert tr.dropped == 7
        # Oldest events are kept (drop-newest).
        assert [e.name for e in tr.events] == ["e0", "e1", "e2"]

    def test_dropped_events_do_not_register_tracks(self):
        tr = Tracer(max_events=1)
        tr.instant("kept", "a", 0)
        tr.instant("lost", "b", 1)
        assert tr.track_names() == {"kept"}
