"""Flag-set guard: one declaration per policy flag lost no CLI anything.

The option strings of the four CLIs and the run policies their argvs
built before the policy flags moved into ``common.POLICY_FLAGS`` are
recorded below as literals.  Every recorded option must still parse,
every new option must be an alias (same ``dest``) of a recorded one, and
each argv must still build the recorded policy.
"""

import argparse
import io
import sys

import pytest

from repro import analyze, cli, systems
from repro.chaos import parse_chaos_spec
from repro.experiments import common, runner
from repro.serve import cli as serve_cli

RUN_OPTIONS = {
    "--analytics": "analytics",
    "--analytics-out": "analytics_out",
    "--chaos": "chaos",
    "--chaos-seed": "chaos_seed",
    "--checkpoint-dir": "checkpoint_dir",
    "--checkpoint-every": "checkpoint_every",
    "--features-out": "features_out",
    "--flight-out": "flight_out",
    "--invariants": "invariants",
    "--max-events": "max_events",
    "--metrics-out": "metrics_out",
    "--obs": "obs",
    "--ratio": "ratio",
    "--report": "report",
    "--result-out": "result_out",
    "--resume": "resume",
    "--scale": "scale",
    "--seed": "seed",
    "--system": "system",
    "--timeline": "timeline",
    "--trace-buffer": "trace_obs_events",
    "--trace-obs-events": "trace_obs_events",
    "--trace-out": "trace_out",
    "--wall-budget": "wall_budget",
    "-r": "report",
    "-s": "system",
}
ANALYZE_OPTIONS = {
    "--features": "features",
    "--flight-events": "flight_events",
    "--json": "json",
    "--ratio": "ratio",
    "--scale": "scale",
    "--seed": "seed",
    "--validate": "validate",
}
EXPERIMENTS_OPTIONS = {
    "--analytics-out": "analytics_out",
    "--breaker-threshold": "breaker_threshold",
    "--cache-dir": "cache_dir",
    "--cache-quota-mb": "cache_quota_mb",
    "--cell-timeout": "cell_timeout",
    "--chaos": "chaos",
    "--chaos-seed": "chaos_seed",
    "--chart": "chart",
    "--checkpoint-dir": "checkpoint_dir",
    "--checkpoint-every": "checkpoint_every",
    "--failure-dir": "failure_dir",
    "--features-out": "features_out",
    "--invariants": "invariants",
    "--jobs": "jobs",
    "--keep-going": "keep_going",
    "--metrics-out": "metrics_out",
    "--no-cache": "no_cache",
    "--no-progress": "no_progress",
    "--obs": "obs",
    "--output": "output",
    "--resume": "resume",
    "--retries": "retries",
    "--scale": "scale",
    "--trace-buffer": "trace_buffer",
    "--trace-out": "trace_out",
    "--worker-deadline": "worker_deadline",
    "-j": "jobs",
}
SERVE_OPTIONS = {
    "--breaker-threshold": "breaker_threshold",
    "--cache-dir": "cache_dir",
    "--cache-quota-mb": "cache_quota_mb",
    "--cell-timeout": "cell_timeout",
    "--checkpoint-dir": "checkpoint_dir",
    "--checkpoint-every": "checkpoint_every",
    "--drain-grace": "drain_grace",
    "--host": "host",
    "--jobs": "jobs",
    "--max-body": "max_body",
    "--no-cache": "no_cache",
    "--pool-chaos": "pool_chaos",
    "--pool-chaos-seed": "pool_chaos_seed",
    "--port": "port",
    "--queue-limit": "queue_limit",
    "--quiet": "quiet",
    "--ready-file": "ready_file",
    "--worker-deadline": "worker_deadline",
    "--worker-heartbeat": "worker_heartbeat",
}

EXPERIMENTS_ALL = [
    "--jobs", "3", "--no-cache", "--cache-dir", "cd",
    "--cache-quota-mb", "2", "--no-progress",
    "--chaos", "dma-stall:prob=0.2;worker-kill:prob=0.1", "--chaos-seed", "7",
    "--invariants", "--cell-timeout", "9", "--retries", "4",
    "--checkpoint-dir", "ck", "--checkpoint-every", "2", "--resume",
    "--worker-deadline", "30", "--breaker-threshold", "8",
    "--keep-going", "--failure-dir", "fd",
]  # fmt: skip
SERVE_ALL = [
    "--jobs", "3", "--cell-timeout", "9", "--checkpoint-dir", "ck",
    "--checkpoint-every", "2", "--cache-dir", "cd", "--cache-quota-mb", "2",
    "--no-cache", "--worker-heartbeat", "0", "--worker-deadline", "30",
    "--breaker-threshold", "8", "--pool-chaos", "worker-kill:prob=0.2",
    "--pool-chaos-seed", "5",
]  # fmt: skip
RUN_ALL = [
    "--chaos", "dma-stall:prob=0.2", "--chaos-seed", "7", "--invariants",
    "--wall-budget", "9", "--checkpoint-dir", "ck", "--checkpoint-every", "2",
    "--resume",
]  # fmt: skip

P = common.RunPolicy
EXPERIMENTS_POLICIES = [
    ([], P()),
    (
        EXPERIMENTS_ALL,
        P(
            cache_dir="cd",
            cache_enabled=False,
            cache_quota_bytes=2 * 1024 * 1024,
            jobs=3,
            progress=False,
            chaos=parse_chaos_spec(
                "dma-stall:prob=0.2;worker-kill:prob=0.1", seed=7
            ),
            invariants=True,
            cell_timeout=9.0,
            checkpoint_dir="ck",
            checkpoint_every=2,
            resume=True,
            retries=4,
            on_error="keep-going",
            worker_deadline=30.0,
            breaker_threshold=8,
        ),
    ),
]
SERVE_POLICIES = [
    ([], P()),
    (
        SERVE_ALL,
        P(
            cache_dir="cd",
            cache_enabled=False,
            cache_quota_bytes=2 * 1024 * 1024,
            jobs=3,
            chaos=parse_chaos_spec("worker-kill:prob=0.2", seed=5),
            cell_timeout=9.0,
            checkpoint_dir="ck",
            checkpoint_every=2,
            resume=True,
            pool_heartbeat=None,
            worker_deadline=30.0,
            breaker_threshold=8,
        ),
    ),
]
RUN_POLICIES = [
    ([], P()),
    (
        RUN_ALL,
        P(
            chaos=parse_chaos_spec("dma-stall:prob=0.2", seed=7),
            invariants=True,
            cell_timeout=9.0,
            checkpoint_dir="ck",
            checkpoint_every=2,
            resume=True,
        ),
    ),
]


def _options(parser: argparse.ArgumentParser) -> dict[str, str]:
    return {
        option: action.dest
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }


@pytest.mark.parametrize(
    "parser, recorded",
    [
        (cli.build_parser(), RUN_OPTIONS),
        (analyze.build_parser(), ANALYZE_OPTIONS),
        (runner.build_parser(), EXPERIMENTS_OPTIONS),
        (serve_cli.build_parser(), SERVE_OPTIONS),
    ],
    ids=["repro-run", "repro-analyze", "repro-experiments", "repro-serve"],
)
def test_no_flag_lost_and_new_ones_are_aliases(parser, recorded):
    now = _options(parser)
    assert set(recorded) <= set(now), set(recorded) - set(now)
    for option in set(now) - set(recorded):
        twins = [o for o in recorded if now[o] == now[option]]
        assert twins, f"{option} is a new flag, not an alias"


class _Stop(Exception):
    pass


@pytest.fixture
def default_policy(monkeypatch, tmp_path):
    """Class defaults as the environment's policy, a non-tty stderr, and
    relative flag paths under ``tmp_path``."""
    monkeypatch.setattr(common, "_DEFAULT_POLICY", common.RunPolicy())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    monkeypatch.chdir(tmp_path)


def _capture(monkeypatch, name: str):
    """Replace ``common.<name>`` by a stub that records its first
    argument and stops the CLI there."""
    seen = []

    def stub(value, *args, **kwargs):
        seen.append(value)
        raise _Stop

    monkeypatch.setattr(common, name, stub)
    return seen


@pytest.mark.parametrize("argv, policy", EXPERIMENTS_POLICIES)
def test_experiments_policy(default_policy, monkeypatch, argv, policy):
    seen = _capture(monkeypatch, "run_policy")
    with pytest.raises(_Stop):
        runner.main(["table1", *argv])
    assert seen == [policy]


@pytest.mark.parametrize("argv, policy", SERVE_POLICIES)
def test_serve_policy(default_policy, argv, policy):
    args = serve_cli.build_parser().parse_args(argv)
    assert serve_cli.config_from_args(args).policy == policy


@pytest.mark.parametrize("argv, policy", RUN_POLICIES)
def test_run_policy(default_policy, monkeypatch, argv, policy):
    """``repro-run`` had no policy object: the recorded policy is the one
    whose ``apply`` gives the cell its flags ran."""
    seen = _capture(monkeypatch, "open_cell")
    with pytest.raises(_Stop):
        cli.main(["KCORE", "--obs", "off", *argv])
    want = common.RunSpec("KCORE", preset=systems.by_name("TO_UE"))
    assert seen == [policy.apply(want)]
