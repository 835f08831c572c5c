"""The persistent run cache: one :class:`RunCache` per cache directory.

Every completed cell is written to ``.repro-cache/`` (``REPRO_CACHE_DIR``,
``--cache-dir``), keyed by its memo key, the package version and
:func:`repro.checkpoint.source_fingerprint`, so any code change
invalidates it.  Disable with ``REPRO_CACHE=0``, ``--no-cache``, or
``RunPolicy(cache_enabled=False)``.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import threading
import warnings
from collections import OrderedDict
from typing import Callable

from repro import __version__
from repro.checkpoint import quarantine, source_fingerprint
from repro.experiments.cells import RunSpec, memo_key
from repro.experiments.policy import RunPolicy, default_policy
from repro.obs import current as _obs_current
from repro.simulator import SimulationResult


def _cache_version() -> str:
    return f"{__version__}/{source_fingerprint()}"


def _cache_name(key: tuple) -> str:
    blob = repr((_cache_version(), key)).encode()
    return f"{hashlib.sha256(blob).hexdigest()[:40]}.pkl"


def _touch(path: pathlib.Path) -> None:
    """Refresh an entry's LRU recency: reads count as use."""
    try:
        os.utime(path)
    except OSError:
        pass


def _disk_load(path: pathlib.Path, key: tuple) -> SimulationResult | None:
    try:
        fh = open(path, "rb")
    except OSError:
        return None  # no entry (or unreadable dir): an ordinary miss
    try:
        with fh:
            stored_key, result = pickle.load(fh)
    except Exception:
        # Truncated or bit-rotted pickles can raise nearly anything while
        # unpickling; whatever it was, the entry is unusable, and renaming
        # it aside keeps the bytes for a post-mortem.
        corrupt = quarantine(path)
        if corrupt is not None:
            warnings.warn(
                f"quarantined corrupted run-cache entry {path} -> {corrupt.name}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    if stored_key != key or not isinstance(result, SimulationResult):
        return None
    _touch(path)
    return result


def _disk_store(
    path: pathlib.Path, key: tuple, result: SimulationResult
) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump((key, result), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic: concurrent writers can't corrupt
    except OSError:
        pass  # caching is best-effort; an unwritable dir must not fail runs


#: Results a :class:`RunCache` memo keeps, least recently used first out
#: (an evicted entry is then a disk hit).  Above every perfbench
#: workload's cell count, so no benchmark round ever drops one.
MEMO_ENTRIES = 1024


class RunCache:
    """The in-process state of one persistent run-cache directory.

    ``memo`` holds the :data:`MEMO_ENTRIES` most recently used results
    by cache key above the directory, so repeated lookups return the
    *same* object and cost nothing; quota eviction and :meth:`clear`
    drop an entry from both, so a quota
    bounds the memo further.  ``stats`` counts this directory's
    traffic.  Pins keep in-flight entries (the serving layer's) from
    quota eviction, refcounted.  The memo, counters and pins change
    under a lock: the server probes and pins from its event loop while
    results land, are stored and evict on the pool's loop thread.
    Every policy naming the directory shares one instance
    (:func:`run_cache`), however often policies are replaced.
    """

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = directory
        self.memo: OrderedDict[tuple, SimulationResult] = OrderedDict()
        self.stats = dict.fromkeys(
            ("memory_hits", "disk_hits", "misses", "evictions"), 0
        )
        self._pins: dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, outcome: str, n: int = 1) -> None:
        """Add ``n`` to one counter, mirrored into the obs registry."""
        with self._lock:
            self.stats[outcome] += n
        obs = _obs_current()
        if obs is not None:
            obs.metrics.counter("experiments.cache", outcome=outcome).inc(n)

    def get(self, key: tuple, policy: RunPolicy) -> SimulationResult | None:
        """The memo's result for ``key``, else the directory's (when the
        policy reads it); counts hits only."""
        with self._lock:
            result = self.memo.get(key)
            if result is not None:
                self.memo.move_to_end(key)
        if result is not None:
            if policy.cache_enabled and policy.cache_quota_bytes is not None:
                # A use the LRU must see, or hot entries would age out.
                _touch(self.directory / _cache_name(key))
            self.count("memory_hits")
        elif policy.cache_enabled:
            result = _disk_load(self.directory / _cache_name(key), key)
            if result is not None:
                self.count("disk_hits")
                self._remember(key, result)
        return result

    def _remember(self, key: tuple, result: SimulationResult) -> None:
        with self._lock:
            self.memo[key] = result
            self.memo.move_to_end(key)
            while len(self.memo) > MEMO_ENTRIES:
                self.memo.popitem(last=False)

    def put(
        self,
        key: tuple,
        result: SimulationResult,
        policy: RunPolicy,
        store: Callable,
    ) -> None:
        """Remember ``result``; when the policy writes the directory,
        write it with ``store`` (:func:`_disk_store`, passed in by the
        dispatcher) and apply the quota."""
        self._remember(key, result)
        if policy.cache_enabled:
            store(self.directory / _cache_name(key), key, result)
            self.enforce_quota(policy.cache_quota_bytes)

    def pin(self, key: tuple) -> None:
        """Protect ``key``'s entry from quota eviction (refcounted)."""
        name = _cache_name(key)
        with self._lock:
            self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, key: tuple) -> None:
        """Drop one pin from ``key``'s entry (missing pins are ignored)."""
        name = _cache_name(key)
        with self._lock:
            count = self._pins.pop(name, 0) - 1
            if count > 0:
                self._pins[name] = count

    def pinned(self) -> int:
        """Number of currently pinned entries."""
        with self._lock:
            return len(self._pins)

    def enforce_quota(self, quota: int | None) -> int:
        """Evict least-recently-used ``*.pkl`` entries beyond ``quota``
        bytes, from the directory and the memo; returns the count.
        Pinned entries are skipped even when that leaves the directory
        over budget.  Runs after every store; the CLIs also call it
        after lowering the quota.  Disk and memo hits refresh an entry's
        recency, so it tracks reads, not just writes."""
        if quota is None or not self.directory.is_dir():
            return 0
        entries = []
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= quota:
            return 0
        with self._lock:
            pinned = set(self._pins)
        evicted = set()
        for _, size, path in sorted(entries, key=lambda e: (e[0], e[2].name)):
            if total <= quota:
                break
            if path.name in pinned:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.add(path.name)
        if evicted:
            with self._lock:
                for key in list(self.memo):
                    if _cache_name(key) in evicted:
                        del self.memo[key]
            self.count("evictions", len(evicted))
        return len(evicted)

    def clear(self) -> int:
        """Delete every entry in the directory, and the memo; return the
        number of files removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.pkl", "*.pkl.corrupt"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        self.memo.clear()
        return removed


#: The one :class:`RunCache` of each cache directory, by absolute path.
_CACHES: dict[str, RunCache] = {}


def run_cache(policy: RunPolicy | None = None) -> RunCache:
    """The :class:`RunCache` of the policy's directory (default: the
    current policy's), found by absolute path."""
    directory = os.path.abspath((policy or default_policy()).cache_dir)
    cache = _CACHES.get(directory)
    if cache is None:
        cache = _CACHES.setdefault(directory, RunCache(pathlib.Path(directory)))
    return cache


def clear_run_cache() -> None:
    """Drop every directory's in-process memo (the persistent cache and
    the counters are untouched), and forget the :class:`RunCache` of
    each directory that no longer exists and holds no pins."""
    for directory, cache in list(_CACHES.items()):
        cache.memo.clear()
        if not cache.directory.is_dir() and not cache.pinned():
            del _CACHES[directory]


def probe_cache(
    spec: RunSpec, use_cache: bool = True, policy: RunPolicy | None = None
) -> SimulationResult | None:
    """Look ``spec`` up in the policy's memo + directory without running
    anything.

    The serving layer's warm fast path: a hit is counted and returned
    immediately (no admission, no batching); a miss returns ``None`` and
    counts nothing — the eventual dispatch records it.
    """
    if not use_cache:
        return None
    policy = policy or default_policy()
    return run_cache(policy).get(memo_key(policy.apply(spec)), policy)