"""The server on the supervised pool: crash visibility, warm hit-rate.

* Every induced worker crash is visible in ``/v1/stats`` (pool restart
  and crash counters) and ``/v1/healthz`` (workers alive / restarts /
  quarantined keys).
* A request that crashes its worker still answers 200 with the
  bit-identical result, and the *second* request for the same cell rides
  the warm cache — a worker crash never costs the cache its entry.
* A key that crashes repeatedly is quarantined: the client receives a
  structured ``cell_failed`` envelope (HTTP 500) naming the poison-cell
  error, and the key shows up in the health report.
* Degraded capacity stretches ``Retry-After``.
"""

from __future__ import annotations

import pytest

from repro.chaos import parse_chaos_spec
from repro.experiments.common import RunPolicy
from repro.serve.testing import running_server

FAST = {"workload": "KCORE", "scale": "tiny", "seed": 0}


#: Chaos seed for the ``FAST`` cells: under ``worker-kill:prob=0.7`` each
#: cell's first attempt is killed and its retry spared.
CHAOS_SEED = 56


def _pool_kwargs(tmp_path, chaos_spec=None, seed=CHAOS_SEED, **overrides):
    policy = RunPolicy(
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
        resume=True,
        jobs=2,
        pool_heartbeat=0.05,
        chaos=(
            parse_chaos_spec(chaos_spec, seed=seed)
            if chaos_spec is not None
            else None
        ),
        **overrides,
    )
    return dict(policy=policy, announce=False)


class TestCrashVisibility:
    def test_crash_answers_200_and_shows_in_stats(self, tmp_path):
        with running_server(
            **_pool_kwargs(tmp_path, "worker-kill:prob=0.7,after=1")
        ) as (server, client):
            golden = None
            with running_server(
                policy=RunPolicy(cache_dir=tmp_path / "golden-cache"),
                announce=False,
            ) as (_, golden_client):
                golden = golden_client.run(**FAST).json()["result"]

            response = client.run(**FAST)
            assert response.status == 200
            payload = response.json()
            assert payload["result"] == golden, (
                "crash-recovered result must be bit-identical"
            )

            stats = client.stats()
            pool = stats["pool"]
            assert pool["crashes"] >= 1, "induced crash missing from stats"
            assert pool["resumes"] >= 1

            # A crashed slot respawns during the next batch's supervision
            # loop (restart backoff runs between batches, not during the
            # idle gap): push one more cold cell through and the restart
            # becomes visible.
            import time

            time.sleep(0.3)
            second = client.run(workload="KCORE", scale="tiny", seed=1)
            assert second.status == 200
            assert client.stats()["pool"]["restarts"] >= 1

            health = client.healthz()
            workers = health["workers"]
            assert workers["workers_target"] == 2
            assert workers["restarts"] >= 1
            assert workers["broken"] is False

    def test_warm_hit_rate_preserved_across_crash(self, tmp_path):
        with running_server(
            **_pool_kwargs(tmp_path, "worker-kill:prob=0.7,after=1")
        ) as (server, client):
            cold = client.run(**FAST).json()
            assert cold["cached"] is False
            crashes = client.stats()["pool"]["crashes"]
            assert crashes >= 1

            warm = client.run(**FAST).json()
            assert warm["cached"] is True, (
                "a crash-recovered cell must still populate the cache"
            )
            assert warm["result"] == cold["result"]
            # The warm answer never reached the pool: no new crashes.
            assert client.stats()["pool"]["crashes"] == crashes
            assert client.stats()["server"]["cache"]["hits"] >= 1


class TestPoisonCell:
    def test_quarantined_key_returns_structured_500(self, tmp_path):
        with running_server(
            **_pool_kwargs(
                tmp_path,
                "worker-kill:prob=1,after=1",
                breaker_threshold=2,
            )
        ) as (server, client):
            response = client.run(**FAST)
            assert response.status == 500
            error = response.json()["error"]
            assert error["code"] == "cell_failed"
            assert error["error_type"] == "PoisonCellError"

            stats = client.stats()
            assert stats["pool"]["poisoned"] == 1
            assert len(stats["pool"]["quarantined_keys"]) == 1
            assert client.healthz()["workers"]["quarantined_keys"] == 1


class TestDegradedCapacity:
    def test_retry_after_stretches_with_dead_fleet(self, tmp_path):
        with running_server(
            **_pool_kwargs(tmp_path)
        ) as (server, client):
            # Eight admitted, unsettled tickets (the backlog).
            server._inflight.update({("placeholder", i): None for i in range(8)})
            saved = {}
            try:
                healthy = server._retry_after()
                # Simulate a fully-dead fleet (mid-respawn) without
                # touching real workers: alive counts read slot state.
                for slot in server._pool._slots:
                    saved[slot.index] = slot.worker
                    slot.worker = None
                degraded = server._retry_after()
            finally:
                for slot in server._pool._slots:
                    slot.worker = saved.get(slot.index, slot.worker)
                server._inflight.clear()
            assert degraded > healthy, (
                "Retry-After must stretch when capacity is degraded"
            )
