"""Serve lifecycle contract: drain, restart-warm, checkpoints, pinning.

* Graceful drain: cells already on the pool finish, requests still
  waiting for a worker resolve to structured 503 shutdown envelopes,
  nothing hangs, and no orphaned checkpoint files are left behind.
* Restart-and-resume: a fresh server over the same cache directory
  answers warm (disk hits) with identical results.
* Stall/resume: a request whose wall budget is too tight checkpoints
  instead of losing work; retries (server-side and client-side) resume
  from the checkpoint and converge on the bit-identical uninterrupted
  result, after which the checkpoint is discarded.
* Quota eviction never removes the entry of an unanswered (pinned)
  request.
* The real SIGTERM path drains a subprocess server cleanly (exit 0).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServerShutdownError
from repro.experiments import common
from repro.experiments.common import RunPolicy
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    result_payload,
    spec_from_request,
    validate_run_request,
)
from repro.serve.testing import running_server

SLOW = {"workload": "BFS-TWC", "scale": "small", "seed": 0}
FAST = {"workload": "KCORE", "scale": "tiny", "seed": 0}


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _wait_until(predicate, deadline: float = 15.0) -> bool:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _on_worker(client, cells: int = 1):
    """True once ``cells`` cells have been dispatched to the pool."""
    return client.stats()["server"]["batches"]["count"] >= cells


@pytest.fixture(scope="module")
def slow_oracle(tmp_path_factory):
    """The uninterrupted result for the slow cell, computed server-free."""
    cache = tmp_path_factory.mktemp("lifecycle-oracle")
    policy = RunPolicy(cache_dir=cache)
    spec = spec_from_request(validate_run_request(dict(SLOW)))
    (result,) = common.run_cells([spec], policy=policy)
    return result_payload(result)


class TestDrain:
    def test_inflight_finishes_queued_gets_shutdown_error(
        self, tmp_path, slow_oracle
    ):
        ckpt = tmp_path / "ckpt"
        with running_server(
            policy=RunPolicy(
                cache_dir=tmp_path / "cache", checkpoint_dir=ckpt, resume=True
            ),
            drain_on_exit=False,
        ) as (server, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                inflight = pool.submit(client.run, **SLOW)
                # The slow cell is on the worker...
                assert _wait_until(lambda: _on_worker(client))
                queued = pool.submit(client.run, **FAST)
                # ...and the fast cell sits admitted behind it (the
                # slow cell's slot frees only when it settles).
                assert _wait_until(lambda: server.backlog >= 2)
                server.request_shutdown()

                finished = inflight.result(timeout=30)
                assert finished.status == 200
                assert _canon(finished.json()["result"]) == _canon(
                    slow_oracle
                )

                refused = queued.result(timeout=30)
                assert refused.status == 503
                envelope = refused.json()
                assert envelope["status"] == "error"
                assert envelope["error"]["code"] == "shutting_down"
        # Zero orphaned checkpoints: the finished cell discarded its
        # snapshot, the refused cell never created one.
        assert not list(ckpt.glob("*.ckpt")) if ckpt.exists() else True
        # The listener is down after the drain.
        with pytest.raises(OSError):
            socket.create_connection(
                (client.host, client.port), timeout=1
            ).close()

    def test_burst_drain_refuses_cells_waiting_for_a_worker(self, tmp_path):
        """A one-worker server holds one cell of a burst on the pool; the
        rest wait for the worker, so a drain lets that one finish and
        refuses the others."""
        burst = [dict(SLOW, seed=seed) for seed in range(3)]
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path, jobs=1),
            drain_on_exit=False,
        ) as (server, client):
            with ThreadPoolExecutor(max_workers=len(burst)) as pool:
                futures = [pool.submit(client.run, **r) for r in burst]
                assert _wait_until(lambda: server.backlog == len(burst))
                assert _wait_until(lambda: _on_worker(client))
                server.request_shutdown()
                responses = [f.result(timeout=60) for f in futures]
        assert sorted(r.status for r in responses) == [200, 503, 503]
        for response in responses:
            if response.status == 503:
                assert response.json()["error"]["code"] == "shutting_down"

    def test_submit_refuses_while_draining(self, tmp_path):
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path),
            drain_on_exit=False,
        ) as (server, client):
            with ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(client.run, **SLOW)
                assert _wait_until(lambda: _on_worker(client))
                server.request_shutdown()
                deadline = time.monotonic() + 5
                while not server.draining and time.monotonic() < deadline:
                    time.sleep(0.01)  # the flag flips on the loop thread
                assert server.draining
                fields = validate_run_request(dict(FAST))
                with pytest.raises(ServerShutdownError):
                    server.submit(fields)
                assert inflight.result(timeout=30).status == 200

    def test_idle_server_drains_immediately(self, tmp_path):
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path), drain_on_exit=False
        ) as (server, client):
            assert client.healthz()["healthy"] is True
            started = time.monotonic()
            server.request_shutdown()
        assert time.monotonic() - started < 10


class TestRestartWarm:
    def test_second_server_over_same_cache_answers_warm(self, tmp_path):
        cache = str(tmp_path / "shared-cache")
        with running_server(
            policy=RunPolicy(cache_dir=cache)
        ) as (_server, client):
            cold = client.run(**FAST)
            assert cold.status == 200
            assert cold.json()["cached"] is False
            cold_payload = cold.json()["result"]
        # New server instance, same cache directory: the entry comes
        # back from disk.  A restart is a new process, whose memo starts
        # empty; in this one, the shared directory's memo is dropped.
        common.clear_run_cache()
        with running_server(
            policy=RunPolicy(cache_dir=cache)
        ) as (_server, client):
            baseline = client.stats()["run_cache"]
            warm = client.run(**FAST)
            assert warm.status == 200
            assert warm.json()["cached"] is True
            assert _canon(warm.json()["result"]) == _canon(cold_payload)
            stats = client.stats()["run_cache"]
            assert stats["disk_hits"] - baseline["disk_hits"] == 1


class TestStallCheckpointResume:
    def test_tight_budget_checkpoints_and_converges(
        self, tmp_path, slow_oracle
    ):
        """A request whose wall budget can't cover the cell stalls into a
        checkpoint; each retry resumes from it (never from scratch), so
        bounded retries converge on the bit-identical uninterrupted
        result and the checkpoint is discarded on completion."""
        ckpt = tmp_path / "ckpt"
        with running_server(
            policy=RunPolicy(
                cache_dir=tmp_path / "cache", checkpoint_dir=ckpt, resume=True
            ),
        ) as (_server, client):
            final = None
            saw_failure = False
            for _attempt in range(8):
                response = client.run(**SLOW, timeout=0.4, no_cache=False)
                if response.status == 200:
                    final = response
                    break
                envelope = response.json()
                assert envelope["error"]["code"] == "cell_failed"
                saw_failure = True
                # The stall left a resumable snapshot behind.
                assert list(ckpt.glob("*.ckpt")), "stall wrote no checkpoint"
            assert final is not None, "cell never converged under retries"
            assert _canon(final.json()["result"]) == _canon(slow_oracle)
            # Completion discards the snapshot: nothing orphaned.
            assert not list(ckpt.glob("*.ckpt"))
            if not saw_failure:
                # The in-request resume retry absorbed the stall — still a
                # valid pass (the budget/speed race went the fast way),
                # but the result identity above is the real lock.
                pass


class TestQuotaPinning:
    def test_eviction_never_removes_inflight_entries(self, tmp_path):
        """An entry stays pinned until its request is answered: a store
        that trips the quota never evicts the entry being served, even
        one that alone exceeds the quota; once answered, it evicts."""
        probe_dir = tmp_path / "probe"
        policy = RunPolicy(cache_dir=probe_dir)
        spec = spec_from_request(validate_run_request(dict(FAST)))
        common.run_cells([spec], policy=policy)
        (entry,) = probe_dir.glob("*.pkl")
        entry_size = entry.stat().st_size

        cache = tmp_path / "cache"
        with running_server(
            policy=RunPolicy(
                cache_dir=cache, cache_quota_bytes=int(entry_size * 0.5)
            ),
        ) as (server, client):
            first = client.run(workload="KCORE", scale="tiny", seed=0)
            assert first.status == 200
            # Its own store tripped the quota while it was in flight.
            (first_entry,) = cache.glob("*.pkl")
            assert client.stats()["server"]["cache"]["evictions"] == 0

            # Answered, the first entry is evictable; the second, pinned
            # while its store trips the quota, is not.
            second = client.run(workload="KCORE", scale="tiny", seed=1)
            assert second.status == 200
            (second_entry,) = cache.glob("*.pkl")
            assert second_entry != first_entry
            assert client.stats()["server"]["cache"]["evictions"] == 1
            assert server.cache.pinned() == 0


def _start_server_process(tmp_path) -> tuple[subprocess.Popen, dict]:
    """``python -m repro.serve`` on a free port; returns it once ready."""
    ready_file = tmp_path / "ready.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    repo_root = pathlib.Path(__file__).parent.parent
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--ready-file",
            str(ready_file),
            "--quiet",
        ],
        env=env,
        cwd=repo_root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30
    while not ready_file.exists():
        if time.monotonic() > deadline or proc.poll() is not None:
            proc.kill()
            _, stderr = proc.communicate(timeout=10)
            pytest.fail(f"server never became ready: {stderr.decode()}")
        time.sleep(0.05)
    return proc, json.loads(ready_file.read_text())


class TestSigterm:
    def test_subprocess_server_drains_on_sigterm(self, tmp_path):
        """The real signal path: SIGTERM lets the in-flight cell finish,
        then the process exits 0."""
        proc, ready = _start_server_process(tmp_path)
        try:
            client = ServeClient(ready["host"], ready["port"])

            with ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(client.run, **SLOW)
                assert _wait_until(lambda: _on_worker(client))
                proc.send_signal(signal.SIGTERM)
                response = inflight.result(timeout=60)
            assert response.status == 200
            assert response.json()["result"]["workload"] == "BFS-TWC"
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_idle_connection_closes_cleanly_on_sigterm(self, tmp_path):
        """A drained server closes its open connections before its loop
        ends, so none is cancelled mid-close (which made asyncio print a
        CancelledError traceback although the process exited 0)."""
        proc, ready = _start_server_process(tmp_path)
        try:
            with socket.create_connection((ready["host"], ready["port"])) as idle:
                ServeClient(ready["host"], ready["port"]).healthz()
                proc.send_signal(signal.SIGTERM)
                _, stderr = proc.communicate(timeout=30)
                assert idle.recv(1) == b""  # the server closed it
            assert proc.returncode == 0
            assert b"Traceback" not in stderr, stderr.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
