"""The explicit run policy: validation, scoping, and its two consumers.

* :class:`~repro.experiments.RunPolicy` validates once, at
  construction; both CLIs turn an invalid value into a usage error
  (exit 2), never a traceback and never a silently accepted value.
* :func:`~repro.experiments.run_policy` scopes a default over a
  block, restores the previous one on exit, and collects the scope's
  keep-going failures; calls with an explicit policy collect nothing.
* The policy is applied in the calling process, so a policy change after
  a pool has started reaches its workers.
* Each :class:`~repro.serve.ReproServer` holds its own policy: two
  servers in one process keep separate cache directories, and a server
  leaves the process default untouched.
"""

from __future__ import annotations

import threading

import pytest

from repro import systems
from repro.chaos import parse_chaos_spec
from repro.errors import ConfigError
from repro.experiments import common, policy as policy_layer, runner
from repro.experiments.cells import RunSpec
from repro.experiments.policy import default_policy, run_policy
from repro.experiments.policy import RunPolicy
from repro.pool import PoolConfig, SupervisedPool
from repro.serve import cli as serve_cli
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer, ServeConfig
from repro.serve.testing import running_server

FAST = {"workload": "KCORE", "scale": "tiny", "seed": 7}

FAILING_CHAOS = parse_chaos_spec("fail-batch:batch=0", seed=0)


def _spec(**kwargs):
    return RunSpec("KCORE", preset=systems.BASELINE, **kwargs)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(cache_quota_bytes=0),
            dict(jobs=0),
            dict(cell_timeout=0),
            dict(checkpoint_dir="ckpt", checkpoint_every=0),
            dict(resume=True),
            dict(retries=-1),
            dict(retry_backoff=-0.1),
            dict(on_error="shrug"),
            dict(pool_heartbeat=0),
            dict(worker_deadline=-1),
            dict(breaker_threshold=0),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunPolicy(**bad)

    def test_from_env_reads_the_four_variables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_QUOTA_MB", "2")
        monkeypatch.setenv("REPRO_JOBS", "3")
        policy = RunPolicy.from_env()
        assert policy.cache_enabled is False
        assert policy.cache_dir == str(tmp_path)
        assert policy.cache_quota_bytes == 2 * 1024 * 1024
        assert policy.jobs == 3

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_JOBS", "-3"),
            ("REPRO_JOBS", "0"),
            ("REPRO_JOBS", "two"),
            ("REPRO_CACHE_QUOTA_MB", "-5"),
            ("REPRO_CACHE_QUOTA_MB", "0"),
            ("REPRO_CACHE_QUOTA_MB", "nan"),
            ("REPRO_CACHE_QUOTA_MB", "lots"),
        ],
    )
    def test_from_env_rejects_invalid_values(self, monkeypatch, name, value):
        """Like ``--cache-quota-mb -5``: an invalid variable is an error
        naming it, never a clamped value (``-5`` MB was a 1-byte quota
        that evicted every entry; ``-3`` jobs ran one)."""
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError, match=name):
            RunPolicy.from_env()


@pytest.fixture()
def sleepless_serve(monkeypatch):
    """Stop ``repro-serve`` short of serving: a flag set that validates
    would otherwise block the test on a live server."""
    monkeypatch.setattr(serve_cli, "main_loop", lambda config: 0)


class TestCliUsageErrors:
    @pytest.mark.parametrize(
        "main, argv",
        [
            (runner.main, ["table1", "--cache-quota-mb", "0"]),
            (runner.main, ["table1", "--cell-timeout", "0"]),
            (runner.main, ["table1", "--retries", "-1"]),
            (runner.main, ["table1", "--breaker-threshold", "0"]),
            (serve_cli.main, ["--cache-quota-mb", "0"]),
            (serve_cli.main, ["--breaker-threshold", "0"]),
            (serve_cli.main, ["--worker-deadline", "-1"]),
            (serve_cli.main, ["--checkpoint-dir", "d", "--checkpoint-every", "0"]),
            (serve_cli.main, ["--cell-timeout", "0"]),
        ],
        ids=lambda value: (
            " ".join(value) if isinstance(value, list)
            else value.__module__.rsplit(".", 2)[-2]
        ),
    )
    def test_invalid_policy_is_a_usage_error(
        self, main, argv, sleepless_serve, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "main, argv",
        [(runner.main, ["table1"]), (serve_cli.main, [])],
        ids=["runner", "serve"],
    )
    def test_invalid_environment_is_a_usage_error(
        self, main, argv, monkeypatch, sleepless_serve, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        monkeypatch.setattr(policy_layer, "_DEFAULT_POLICY", None)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


@pytest.fixture()
def isolated(tmp_path):
    with run_policy(RunPolicy(cache_dir=tmp_path / "default")):
        yield tmp_path


class TestScope:
    def test_scope_restores_the_previous_default(self, isolated):
        before = default_policy()
        with pytest.raises(RuntimeError):
            with run_policy(jobs=2, retries=3) as failures:
                assert default_policy().jobs == 2
                assert default_policy().cache_dir == before.cache_dir
                assert failures == []
                raise RuntimeError("leave the block early")
        assert default_policy() == before

    def test_explicit_policy_calls_collect_nothing(self, isolated):
        keep_going = RunPolicy(cache_dir=isolated, on_error="keep-going")
        with run_policy(on_error="keep-going") as failures:
            (slot,) = common.run_cells(
                [_spec(chaos=FAILING_CHAOS)], policy=keep_going
            )
            assert common.is_failure(slot)
            assert failures == [], "explicit-policy calls report nothing"
            (slot,) = common.run_cells([_spec(chaos=FAILING_CHAOS)])
            assert failures == [slot], "scoped calls report their failures"

    def test_policy_change_after_pool_start_takes_effect(self, isolated):
        config = PoolConfig(
            workers=1,
            heartbeat=0.05,
            term_grace=0.2,
            backoff_base=0.01,
            breaker_threshold=100,
        )
        killer = RunPolicy(
            checkpoint_dir=isolated / "ckpt",
            chaos=parse_chaos_spec("worker-kill:prob=1,after=1", seed=3),
        )
        with SupervisedPool(config) as pool:
            (clean,) = common.run_cells([_spec()], use_cache=False, pool=pool)
            assert pool.stats()["crashes"] == 0
            (killed,) = common.run_cells(
                [_spec()], use_cache=False, pool=pool, policy=killer
            )
            stats = pool.stats()
        assert stats["crashes"] >= 1 and stats["resumes"] >= 1, (
            "the new policy's chaos and checkpoints must reach the worker"
        )
        assert killed.exec_cycles == clean.exec_cycles
        assert killed.batch_stats.num_batches == clean.batch_stats.num_batches


class TestServerPolicy:
    def test_two_servers_keep_their_own_cache_dirs(self, isolated):
        a_dir, b_dir = isolated / "a", isolated / "b"
        with running_server(
            policy=RunPolicy(cache_dir=a_dir), announce=False
        ) as (_, a_client):
            with running_server(
                policy=RunPolicy(cache_dir=b_dir), announce=False
            ) as (_, b_client):
                assert b_client.healthz()["healthy"] is True
                response = a_client.run(**FAST)
                assert response.status == 200
                assert response.json()["cached"] is False
        assert len(list(a_dir.glob("*.pkl"))) == 1
        assert not list(b_dir.glob("*.pkl"))

    def test_two_servers_keep_their_own_memo_and_counters(self, isolated):
        """Each server's run cache is its directory's: A's result is no
        hit for B, which computes and stores it itself, and each
        ``/v1/stats`` counts only its own traffic."""
        a_dir, b_dir = isolated / "a", isolated / "b"
        with running_server(
            policy=RunPolicy(cache_dir=a_dir), announce=False
        ) as (_, a_client):
            with running_server(
                policy=RunPolicy(cache_dir=b_dir), announce=False
            ) as (_, b_client):
                assert a_client.run(**FAST).json()["cached"] is False
                assert a_client.run(**FAST).json()["cached"] is True
                response = b_client.run(**FAST)
                assert response.status == 200
                assert response.json()["cached"] is False, (
                    "B answered from A's memo"
                )
                a_stats = a_client.stats()["run_cache"]
                b_stats = b_client.stats()["run_cache"]
        assert len(list(b_dir.glob("*.pkl"))) == 1
        counts = dict(memory_hits=0, disk_hits=0, misses=1, evictions=0)
        assert a_stats == dict(counts, memory_hits=1)
        assert b_stats == counts

    def test_direct_server_leaves_default_policy_unchanged(self, isolated):
        before = default_policy()
        policy = RunPolicy(
            cache_dir=isolated / "served", cache_quota_bytes=1 << 20
        )
        server = ReproServer(ServeConfig(policy=policy))
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            client = ServeClient("127.0.0.1", server.wait_ready())
            assert client.run(**FAST).status == 200
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert default_policy() == before
        assert list((isolated / "served").glob("*.pkl"))
