"""Persistent run-cache behaviour: hits, invalidation, key coverage,
quota/LRU eviction, and in-flight pinning (shared by the CLI and the
serving layer)."""

import dataclasses
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import replace

import pytest

from repro import systems
from repro.errors import ConfigError
from repro.experiments import cache as cache_layer, common
from repro.experiments.cache import probe_cache
from repro.experiments.cells import RunSpec, half_ratio, memo_key
from repro.experiments.policy import RunPolicy, default_policy, run_policy


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """Isolate the persistent cache in a temp dir: its own memo,
    counters and pins."""
    with run_policy(RunPolicy(cache_dir=tmp_path)):
        yield tmp_path


def _run(**kwargs):
    return common.run_system(systems.BASELINE, "KCORE", scale="tiny", **kwargs)


class TestPersistentCache:
    def test_result_survives_memo_clear(self, cache):
        first = _run()
        assert cache_layer.run_cache().stats["misses"] == 1
        assert list(cache.glob("*.pkl")), "no cache entry written"

        cache_layer.clear_run_cache()  # drop the in-process memo only
        second = _run()
        stats = cache_layer.run_cache().stats
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 1, "disk hit must not re-run"
        assert second is not first  # unpickled copy...
        assert second.exec_cycles == first.exec_cycles  # ...same numbers
        assert second.batch_stats.num_batches == first.batch_stats.num_batches

    def test_memo_hit_returns_same_object(self, cache):
        assert _run() is _run()

    def test_param_change_misses(self, cache):
        _run()
        cache_layer.clear_run_cache()
        _run(ratio=0.9)
        assert cache_layer.run_cache().stats["misses"] == 2

    def test_code_version_change_invalidates(self, cache, monkeypatch):
        first = _run()
        cache_layer.clear_run_cache()
        monkeypatch.setattr(cache_layer, "_cache_version", lambda: "other-code")
        second = _run()
        stats = cache_layer.run_cache().stats
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 2
        assert second.exec_cycles == first.exec_cycles  # still deterministic

    def test_no_cache_skips_read_and_write(self, cache):
        a = _run(use_cache=False)
        assert not list(cache.glob("*.pkl"))
        b = _run(use_cache=False)
        assert b is not a
        assert cache_layer.run_cache().stats["memory_hits"] == 0

    def test_cache_disabled_globally(self, cache):
        with run_policy(cache_enabled=False):
            _run()
            assert not list(cache.glob("*.pkl"))
            # The in-process memo still works with the disk layer off.
            assert _run() is not None
        assert cache_layer.run_cache().stats["memory_hits"] == 1

    def test_clear_persistent_cache(self, cache):
        _run()
        assert cache_layer.run_cache().clear() >= 1
        assert not list(cache.glob("*.pkl"))

    def test_corrupt_entry_is_ignored(self, cache):
        _run()
        for path in cache.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        cache_layer.clear_run_cache()
        result = _run()  # silently recomputes
        assert result.exec_cycles > 0


class TestCacheKey:
    def test_max_events_is_part_of_the_key(self, cache):
        """Regression for the missing-``max_events`` key bug: a cached
        full run must not satisfy a lower-capped call — the capped call
        still hits its cap (the simulator raises on incomplete runs)
        instead of silently returning the full-run result."""
        from repro.errors import CellFailure, SimulationError

        full = _run()
        with pytest.raises(CellFailure) as excinfo:
            _run(max_events=200)
        assert isinstance(excinfo.value.__cause__, SimulationError)
        cache_layer.clear_run_cache()
        full_again = _run()
        assert full_again.events_processed == full.events_processed
        assert full_again.exec_cycles == full.exec_cycles

    def test_memo_key_distinguishes_all_parameters(self):
        base = RunSpec("KCORE", preset=systems.BASELINE).resolved()
        variants = [
            dataclasses.replace(base, preset=systems.TO),
            dataclasses.replace(base, workload="PR"),
            dataclasses.replace(base, scale="small"),
            dataclasses.replace(base, ratio=0.9),
            dataclasses.replace(base, fault_handling_cycles=30_000),
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, max_events=1000),
        ]
        keys = {memo_key(spec) for spec in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_workload_name_is_case_insensitive(self):
        upper = RunSpec("KCORE", preset=systems.BASELINE).resolved()
        lower = RunSpec("kcore", preset=systems.BASELINE).resolved()
        assert memo_key(upper) == memo_key(lower)

    def test_distinct_configs_do_not_collide(self, cache):
        from repro.workloads.registry import build_workload

        wl = build_workload("KCORE", scale="tiny")
        cfg_a = systems.BASELINE.configure(wl, ratio=half_ratio("tiny"))
        cfg_b = dataclasses.replace(
            cfg_a,
            uvm=dataclasses.replace(cfg_a.uvm, prefetcher="none"),
        )
        a = common.run_config("KCORE", cfg_a, scale="tiny")
        b = common.run_config("KCORE", cfg_b, scale="tiny")
        assert cache_layer.run_cache().stats["misses"] == 2
        assert a.prefetched_pages > 0
        assert b.prefetched_pages == 0

    def test_run_config_hits_cache(self, cache):
        from repro.workloads.registry import build_workload

        wl = build_workload("KCORE", scale="tiny")
        cfg = systems.BASELINE.configure(wl, ratio=half_ratio("tiny"))
        first = common.run_config("KCORE", cfg, scale="tiny")
        cache_layer.clear_run_cache()
        second = common.run_config("KCORE", cfg, scale="tiny")
        assert cache_layer.run_cache().stats["disk_hits"] == 1
        assert second.exec_cycles == first.exec_cycles


def _quota(max_bytes):
    """The isolated cache's policy bounded to ``max_bytes``."""
    return replace(default_policy(), cache_quota_bytes=max_bytes)


def _spec(seed=0):
    return RunSpec(
        "KCORE", preset=systems.BASELINE, scale="tiny", seed=seed
    ).resolved()


def _fill(cache, seeds):
    """Run one cell per seed; return {seed: cache file} oldest-first."""
    files = {}
    for age, seed in enumerate(seeds):
        common.run_cells([_spec(seed)])
        (new,) = [p for p in cache.glob("*.pkl") if p not in files.values()]
        files[seed] = new
        # Deterministic LRU order regardless of filesystem timestamp
        # granularity: older seeds get strictly older mtimes.
        stamp = 1_000_000 + age * 1000
        os.utime(new, (stamp, stamp))
    return files


class TestCacheQuota:
    def test_quota_validation(self):
        with pytest.raises(ConfigError):
            RunPolicy(cache_quota_bytes=0)
        with pytest.raises(ConfigError):
            RunPolicy(cache_quota_bytes=-1)
        # Unbounded is fine, and the default.
        assert RunPolicy().cache_quota_bytes is None

    def test_unbounded_by_default_evicts_nothing(self, cache):
        _fill(cache, [0, 1, 2])
        quota = default_policy().cache_quota_bytes
        assert cache_layer.run_cache().enforce_quota(quota) == 0
        assert len(list(cache.glob("*.pkl"))) == 3

    def test_lru_eviction_drops_oldest_first(self, cache):
        files = _fill(cache, [0, 1, 2])
        one_entry = max(p.stat().st_size for p in files.values())
        evicted = cache_layer.run_cache().enforce_quota(one_entry)
        assert evicted == 2
        survivors = set(cache.glob("*.pkl"))
        assert survivors == {files[2]}, "newest entry must survive"
        assert cache_layer.run_cache().stats["evictions"] == 2

    def test_disk_read_refreshes_recency(self, cache):
        files = _fill(cache, [0, 1])
        # A disk hit on the *older* entry must mark it recently used.
        cache_layer.clear_run_cache()
        common.run_cells([_spec(0)])
        assert cache_layer.run_cache().stats["disk_hits"] == 1
        assert files[0].stat().st_mtime > files[1].stat().st_mtime
        cache_layer.run_cache().enforce_quota(
            max(p.stat().st_size for p in files.values())
        )
        assert set(cache.glob("*.pkl")) == {files[0]}

    def test_memo_hit_refreshes_recency_under_a_quota(self, cache):
        files = _fill(cache, [0, 1])
        one_entry = max(p.stat().st_size for p in files.values())
        # A memo hit on the older entry is a use the LRU must see, or
        # the hottest entries would age out of the directory.
        assert probe_cache(_spec(0), policy=_quota(2 * one_entry))
        assert files[0].stat().st_mtime > files[1].stat().st_mtime
        cache_layer.run_cache().enforce_quota(one_entry)
        assert set(cache.glob("*.pkl")) == {files[0]}

    def test_store_enforces_quota_automatically(self, cache):
        files = _fill(cache, [0])
        policy = _quota(files[0].stat().st_size)
        common.run_cells([_spec(1)], policy=policy)  # store pushes past it
        remaining = list(cache.glob("*.pkl"))
        assert len(remaining) == 1
        assert cache_layer.run_cache().stats["evictions"] >= 1

    def test_pinned_entry_survives_eviction(self, cache):
        files = _fill(cache, [0, 1])
        key = memo_key(_spec(0))
        cache_layer.run_cache().pin(key)
        try:
            cache_layer.run_cache().enforce_quota(1)  # nothing fits
            survivors = set(cache.glob("*.pkl"))
            assert files[0] in survivors, "pinned entry was evicted"
            assert files[1] not in survivors
        finally:
            cache_layer.run_cache().unpin(key)
        assert cache_layer.run_cache().pinned() == 0
        cache_layer.run_cache().enforce_quota(1)
        assert not list(cache.glob("*.pkl"))

    def test_pins_are_refcounted(self, cache):
        key = memo_key(_spec(0))
        run_cache = cache_layer.run_cache()
        run_cache.pin(key)
        run_cache.pin(key)
        assert run_cache.pinned() == 1
        run_cache.unpin(key)
        assert run_cache.pinned() == 1, "one pin must remain"
        run_cache.unpin(key)
        assert run_cache.pinned() == 0
        run_cache.unpin(key)  # over-unpin is harmless
        assert run_cache.pinned() == 0


class TestProbeCache:
    def test_miss_returns_none_and_counts_nothing(self, cache):
        assert probe_cache(_spec()) is None
        stats = cache_layer.run_cache().stats
        assert stats["misses"] == 0
        assert stats["memory_hits"] == 0

    def test_memory_and_disk_probe_hits(self, cache):
        common.run_cells([_spec()])
        hit = probe_cache(_spec())
        assert hit is not None
        assert cache_layer.run_cache().stats["memory_hits"] == 1
        cache_layer.clear_run_cache()
        assert probe_cache(_spec()) is not None
        assert cache_layer.run_cache().stats["disk_hits"] == 1

    def test_probe_respects_use_cache(self, cache):
        common.run_cells([_spec()])
        assert probe_cache(_spec(), use_cache=False) is None


class TestPerDirectory:
    def test_directories_share_no_memo_or_counters(self, cache):
        a = replace(default_policy(), cache_dir=cache / "a")
        b = replace(default_policy(), cache_dir=cache / "b")
        common.run_cells([_spec()], policy=a)
        assert probe_cache(_spec(), policy=a) is not None
        assert probe_cache(_spec(), policy=b) is None
        assert cache_layer.run_cache(a).stats == dict(
            memory_hits=1, disk_hits=0, misses=1, evictions=0
        )
        assert set(cache_layer.run_cache(b).stats.values()) == {0}

    def test_quota_eviction_drops_the_memo_entry(self, cache):
        policy = _quota(1)  # smaller than any entry
        common.run_cells([_spec()], policy=policy)
        assert not list(cache.glob("*.pkl")), "the store was not evicted"
        assert probe_cache(_spec(), policy=policy) is None
        assert cache_layer.run_cache().stats["evictions"] == 1

    def test_memo_is_bounded_least_recently_used_first(self, cache, monkeypatch):
        """Without a quota the memo still holds at most ``MEMO_ENTRIES``
        results: the least recently used drops out, and is then served
        from disk, not recomputed."""
        monkeypatch.setattr(cache_layer, "MEMO_ENTRIES", 2)
        common.run_cells([_spec(0), _spec(1)])
        assert probe_cache(_spec(0)) is not None  # 0 is now fresher
        common.run_cells([_spec(2)])
        memo = cache_layer.run_cache().memo
        assert list(memo) == [memo_key(_spec(s)) for s in (0, 2)]
        (again,) = common.run_cells([_spec(1)])
        stats = cache_layer.run_cache().stats
        assert stats["disk_hits"] == 1 and stats["misses"] == 3
        assert again.exec_cycles > 0
        assert len(memo) == 2

    def test_policies_on_one_directory_share_the_memo(self, cache, monkeypatch):
        monkeypatch.chdir(cache)
        relative = RunPolicy(cache_dir="runs")
        absolute = RunPolicy(cache_dir=cache / "runs", retries=3)
        (result,) = common.run_cells([_spec()], policy=relative)
        assert probe_cache(_spec(), policy=absolute) is result
        assert cache_layer.run_cache(relative) is cache_layer.run_cache(absolute)
        assert cache_layer.run_cache(absolute).stats["memory_hits"] == 1

    def test_clear_forgets_deleted_directories(self, cache):
        """A fresh directory per round, deleted after it, must not grow
        the directory table: ``clear_run_cache`` forgets the
        ``RunCache`` of each directory that is gone and holds no pins."""
        before = len(cache_layer._CACHES)
        for _ in range(4):
            directory = tempfile.mkdtemp(dir=cache)
            policy = RunPolicy(cache_dir=directory)
            common.run_cells([_spec()], policy=policy)
            shutil.rmtree(directory)
            cache_layer.clear_run_cache()
            assert len(cache_layer._CACHES) <= before
        gone = RunPolicy(cache_dir=cache / "gone")
        pinned = cache_layer.run_cache(gone)
        pinned.pin(memo_key(_spec()))
        cache_layer.clear_run_cache()
        assert cache_layer.run_cache(gone) is pinned
        pinned.unpin(memo_key(_spec()))

    def test_counters_and_pins_survive_thread_contention(self, cache):
        """The server counts and pins from its event loop while results
        land, count and evict on the pool's thread: no update may be
        lost."""
        run_cache = cache_layer.run_cache()
        key = memo_key(_spec())
        rounds, threads = 2000, 8

        def hammer():
            for _ in range(rounds):
                run_cache.count("memory_hits")
                run_cache.pin(key)
                run_cache.unpin(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert cache_layer.run_cache().stats["memory_hits"] == rounds * threads
        assert run_cache.pinned() == 0
