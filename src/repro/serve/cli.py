"""``repro-serve`` — run the simulation server from the shell.

Examples::

    repro-serve --port 8787 --jobs 4 --cache-quota-mb 256
    repro-serve --port 0 --ready-file /tmp/serve.json   # ephemeral port
    python -m repro.serve --checkpoint-dir .serve-ckpt --cell-timeout 30

The process runs until SIGTERM/SIGINT, then drains: cells already on
the pool finish (or checkpoint, when a checkpoint directory is
configured), requests still waiting for a worker get structured 503
envelopes, and the process exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.errors import ConfigError
from repro.experiments.policy import RunPolicy, add_policy_arguments, default_policy
from repro.serve.server import ServeConfig, main_loop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Simulation-as-a-service over the repro run cache.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 picks an ephemeral port; see --ready-file)",
    )
    add_policy_arguments(parser, "jobs")
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max admitted-but-unfinished requests before 429",
    )
    parser.add_argument(
        "--max-body",
        type=int,
        default=1 << 20,
        help="request body size limit in bytes",
    )
    add_policy_arguments(
        parser,
        "cell_timeout",
        "checkpoint_dir",
        "checkpoint_every",
        "cache_dir",
        "cache_quota_mb",
        "no_cache",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds dispatched cells get to finish on shutdown",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write {host, port, pid} JSON here once listening",
    )
    add_policy_arguments(
        parser,
        "worker_heartbeat",
        "worker_deadline",
        "breaker_threshold",
        "pool_chaos",
        "pool_chaos_seed",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the startup/shutdown announcements",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """The server configuration the flags describe; raises
    :class:`~repro.errors.ConfigError` for invalid values."""
    policy = RunPolicy.from_args(
        args, replace(default_policy(), jobs=1)
    )
    return ServeConfig(
        host=args.host,
        port=args.port,
        # A server always resumes the checkpoints it keeps.
        policy=replace(policy, resume=policy.checkpoint_dir is not None),
        queue_limit=args.queue_limit,
        max_body=args.max_body,
        drain_grace=args.drain_grace,
        ready_file=args.ready_file,
        announce=not args.quiet,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        parser.error(str(exc))
    return main_loop(config)


if __name__ == "__main__":
    sys.exit(main())
