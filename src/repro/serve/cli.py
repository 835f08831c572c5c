"""``repro-serve`` — run the batching simulation server from the shell.

Examples::

    repro-serve --port 8787 --jobs 4 --cache-quota-mb 256
    repro-serve --port 0 --ready-file /tmp/serve.json   # ephemeral port
    python -m repro.serve --checkpoint-dir .serve-ckpt --cell-timeout 30

The process runs until SIGTERM/SIGINT, then drains: the in-flight batch
finishes (or checkpoints, when a checkpoint directory is configured),
queued requests get structured 503 envelopes, and the process exits 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.errors import ConfigError
from repro.experiments import common
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
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="supervised worker processes that execute cells",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max admitted-but-unfinished requests before 429",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.01,
        help="seconds the batcher waits to coalesce concurrent requests",
    )
    parser.add_argument(
        "--batch-max", type=int, default=16, help="max cells per batch"
    )
    parser.add_argument(
        "--max-body",
        type=int,
        default=1 << 20,
        help="request body size limit in bytes",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="server-side wall budget per cell in seconds",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint stalled cells here and resume them on re-request",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint cadence in batches (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="run-cache directory (default: the repo-wide .repro-cache)",
    )
    parser.add_argument(
        "--cache-quota-mb",
        type=float,
        default=None,
        help="evict least-recently-used cache entries above this size",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the run cache entirely (every request recomputes)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds the in-flight batch gets to finish on shutdown",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write {host, port, pid} JSON here once listening",
    )
    parser.add_argument(
        "--worker-heartbeat",
        type=float,
        default=0.25,
        help="pool worker heartbeat cadence in seconds (0 disables "
        "heartbeat supervision)",
    )
    parser.add_argument(
        "--worker-deadline",
        type=float,
        default=None,
        help="hard per-cell wall deadline enforced by the supervisor",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="worker crashes on one memo key before it is quarantined "
        "as a poison cell",
    )
    parser.add_argument(
        "--pool-chaos",
        default=None,
        help="process-level chaos spec for the pool (worker-kill / "
        "worker-hang / worker-slow), e.g. 'worker-kill:prob=0.2'",
    )
    parser.add_argument(
        "--pool-chaos-seed",
        type=int,
        default=0,
        help="seed for --pool-chaos plans",
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
    chaos = None
    if args.pool_chaos:
        from repro.chaos import PROCESS_KINDS, parse_chaos_spec

        chaos = parse_chaos_spec(args.pool_chaos, seed=args.pool_chaos_seed)
        foreign = [
            s.kind for s in chaos.injectors if s.kind not in PROCESS_KINDS
        ]
        if foreign:
            raise ConfigError(
                f"--pool-chaos accepts process-level kinds only (got "
                f"{foreign}; use --chaos in run requests for "
                f"simulation-level injectors)"
            )
    changes = {}
    if args.cache_dir is not None:
        changes["cache_dir"] = args.cache_dir
    if args.cache_quota_mb is not None:
        changes["cache_quota_bytes"] = int(args.cache_quota_mb * 1024 * 1024)
    if args.no_cache:
        changes["cache_enabled"] = False
    policy = replace(
        common.default_policy(),
        jobs=args.jobs,
        chaos=chaos,
        cell_timeout=args.cell_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.checkpoint_dir is not None,
        pool_heartbeat=args.worker_heartbeat or None,
        worker_deadline=args.worker_deadline,
        breaker_threshold=args.breaker_threshold,
        **changes,
    )
    return ServeConfig(
        host=args.host,
        port=args.port,
        policy=policy,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
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
