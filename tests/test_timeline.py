"""Tests for the Figure-2 batch timeline rendered from batch records."""

import pathlib
import time as _time

import pytest

from repro import GpuUvmSimulator, build_workload, systems
from repro.cli import main as cli_main
from repro.core.batching import BatchRecord
from repro.experiments import common
from repro.obs import Observability, render_batches
from repro.obs.tracer import Tracer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "timeline"

#: Renders captured from the event-recorder implementation this view
#: replaced (8 lanes, default ratio, a full obs session, tiny scale).
GOLDEN_CELLS = [
    (system, workload)
    for system in ("BASELINE", "TO+UE")
    for workload in ("KCORE", "BFS-TTC")
]


def golden_path(system: str, workload: str) -> pathlib.Path:
    name = f"{system.lower().replace('+', '_')}__"
    name += workload.lower().replace("-", "_")
    return GOLDEN_DIR / f"{name}.txt"


def run_cell(system: str, workload: str, obs=None):
    wl = build_workload(workload, scale="tiny")
    config = systems.by_name(system).configure(wl)
    return GpuUvmSimulator(wl, config, obs=obs).run()


def batch(index, begin, first, end):
    return BatchRecord(
        index=index, begin_time=begin, first_migration_time=first, end_time=end
    )


class TestTimeline:
    """The view's bounds: a capped marker source and a long run."""

    def test_cap_drops_and_counts(self):
        """Markers come from the bounded tracer; the render says when its
        ring dropped events rather than silently losing marks."""
        tracer = Tracer(max_events=2)
        for t in (150, 160, 170):
            tracer.instant("eviction", "evict", t)
        text = render_batches([batch(0, 0, 100, 300)], tracer=tracer)
        assert text.splitlines()[1].count("!") == 2
        assert "(1 trace events dropped beyond the ring" in text
        assert "dropped" not in render_batches([batch(0, 0, 100, 300)])

    def test_render_batches_on_large_timeline(self):
        """Marker lookup is per lane by bisect, not a scan of the trace."""
        records = [
            batch(i, i * 100, i * 100 + 20, i * 100 + 90) for i in range(1000)
        ]
        tracer = Tracer(max_events=200_000)
        for i in range(1000):
            t = i * 100
            for k in range(40):
                tracer.instant("uvm", "page arrival", t + 30 + k)
            tracer.instant("eviction", "evict", t + 80)
        start = _time.perf_counter()
        text = render_batches(records, tracer=tracer, max_batches=50)
        elapsed = _time.perf_counter() - start
        assert "B49" in text
        assert elapsed < 1.0, f"render took {elapsed:.2f}s"


class TestRendering:
    def test_empty_timeline(self):
        assert "no batches" in render_batches([])

    def test_render_contains_lanes_and_markers(self):
        tracer = Tracer()
        tracer.instant("eviction", "evict", 150)
        tracer.instant("uvm", "page arrival", 200)
        text = render_batches([batch(0, 0, 100, 300)], tracer=tracer)
        assert "B0" in text
        assert "#" in text
        assert "=" in text
        assert "*" in text
        assert "!" in text

    def test_render_respects_max_batches(self):
        records = [
            batch(i, i * 100, i * 100 + 10, i * 100 + 50) for i in range(10)
        ]
        text = render_batches(records, max_batches=3)
        assert "B2" in text
        assert "B3" not in text

    @pytest.mark.parametrize("system,workload", GOLDEN_CELLS)
    def test_render_matches_golden(self, system, workload):
        session = Observability("full")
        result = run_cell(system, workload, obs=session)
        text = render_batches(result.batch_stats.records, tracer=session.tracer)
        assert text + "\n" == golden_path(system, workload).read_text()


class TestSimulatorIntegration:
    def test_simulation_populates_timeline(self):
        session = Observability("full")
        result = run_cell("BASELINE", "KCORE", obs=session)
        records = result.batch_stats.records
        assert records and all(r.complete for r in records)
        names = [e.name for e in session.tracer.events if e.ph == "i"]
        assert "page arrival" in names
        assert "evict" in names

    def test_arrivals_match_migrated_pages(self):
        session = Observability("full")
        result = run_cell("BASELINE", "KCORE", obs=session)
        arrivals = [
            e
            for e in session.tracer.events
            if e.ph == "i" and e.track == "uvm" and e.name == "page arrival"
        ]
        assert len(arrivals) == result.migrated_pages

    def test_batch_events_are_ordered(self):
        result = run_cell("BASELINE", "KCORE")
        for record in result.batch_stats.records:
            assert record.begin_time <= record.first_migration_time
            assert record.first_migration_time <= record.end_time
            assert record.migration_time >= 0

    def test_no_timeline_by_default(self):
        """Without an obs session the view still draws every lane, but
        has no trace instants to mark."""
        result = run_cell("BASELINE", "KCORE")
        text = render_batches(result.batch_stats.records)
        assert "B7" in text
        lanes = text.splitlines()[1:]
        assert not any("!" in lane or "*" in lane for lane in lanes)


def test_pool_result_renders_like_serial():
    """A result returned by a pool worker (no obs session there) carries
    the records the Figure-2 view needs: same lanes as the serial run.
    Two cells, because ``run_cells`` runs a lone miss in process."""
    specs = [
        common.RunSpec(workload="KCORE", preset=systems.by_name(system))
        for system in ("BASELINE", "TO+UE")
    ]
    pooled = common.run_cells(
        specs, policy=common.RunPolicy(jobs=2, cache_enabled=False)
    )
    serial = common.run_cells(
        specs, policy=common.RunPolicy(jobs=1, cache_enabled=False)
    )
    for got, want in zip(pooled, serial):
        text = render_batches(got.batch_stats.records)
        assert "B7" in text
        assert text == render_batches(want.batch_stats.records)


class TestCliResume:
    """``--timeline`` on a resumed run follows this invocation's flag."""

    ARGS = ["KCORE", "--system", "BASELINE", "--scale", "tiny", "--obs", "off"]

    def first_leg(self, ckpt, *extra):
        code = cli_main(
            self.ARGS
            + ["--checkpoint-dir", str(ckpt), "--checkpoint-every", "1"]
            + ["--max-events", "400", *extra]
        )
        assert code == 1
        assert list(ckpt.glob("*.ckpt"))

    def resume(self, ckpt, *extra):
        return cli_main(
            self.ARGS + ["--checkpoint-dir", str(ckpt), "--resume", *extra]
        )

    def test_resume_prints_timeline_when_asked(self, tmp_path, capsys):
        self.first_leg(tmp_path)
        capsys.readouterr()
        assert self.resume(tmp_path, "--timeline") == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "batch timeline" in out
        assert "B0   |" in out

    def test_resume_omits_timeline_unless_asked(self, tmp_path, capsys):
        self.first_leg(tmp_path, "--timeline")
        capsys.readouterr()
        assert self.resume(tmp_path) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "batch timeline" not in out
