"""Serving-layer benchmark: sustained throughput and warm-cache latency.

Boots an in-process ``repro-serve`` server over a fresh cache directory
and measures three phases against it:

* **cold** — a mix of distinct tiny cells issued concurrently; measures
  sustained request throughput while every cell actually simulates
  (admission → dispatch → ``submit_cell`` → settle).
* **warm** — the same mix again: every request is a cache hit served
  straight off the admission fast path.  The gated number is the
  client-observed p99 latency here (< 50 ms on the quick mix).
* **dedupe burst** — N identical concurrent requests; verifies the
  flight executes once and reports the dedupe fan-in.

A fourth phase, **head of line**, runs on its own 2-worker server: one
small cell, then tiny cells sent while it runs.  They share the idle
worker, so every tiny cell must answer before the small one.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run, writes BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI-sized, no file written
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --check BENCH_serve.json

``--check`` enforces the warm-cache p99 ceiling (``--p99-limit``,
default 50 ms) and the head-of-line order, and compares warm throughput
against the committed baseline, exiting non-zero on regression beyond
``--tolerance`` — the CI serve perf gate (see ``.github/workflows/ci.yml``
and ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import RunPolicy  # noqa: E402
from repro.serve.testing import running_server  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"

#: The quick preset mix: distinct tiny cells across workloads/seeds.
def request_mix(cells: int) -> list[dict]:
    workloads = ["KCORE", "BFS-TWC", "PR", "BFS-TTC"]
    return [
        {
            "workload": workloads[i % len(workloads)],
            "scale": "tiny",
            "seed": i // len(workloads),
        }
        for i in range(cells)
    ]


def _issue(client, requests: list[dict], concurrency: int):
    """Fire ``requests`` with bounded concurrency; returns latencies (s)."""
    latencies = [0.0] * len(requests)

    def one(index: int) -> int:
        start = time.perf_counter()
        response = client.run(**requests[index])
        latencies[index] = time.perf_counter() - start
        return response.status

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        statuses = list(pool.map(one, range(len(requests))))
    assert all(s == 200 for s in statuses), f"non-200 in bench: {statuses}"
    return latencies


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[index]


def _phase(latencies: list[float], wall: float) -> dict:
    return {
        "requests": len(latencies),
        "wall_seconds": round(wall, 4),
        "req_per_s": round(len(latencies) / wall, 2) if wall else 0.0,
        "latency_ms": {
            "mean": round(statistics.mean(latencies) * 1000, 3),
            "p50": round(_percentile(latencies, 50) * 1000, 3),
            "p99": round(_percentile(latencies, 99) * 1000, 3),
        },
    }


def head_of_line(tiny_cells: int) -> dict:
    """On a 2-worker server, send one small cell, then ``tiny_cells``
    tiny cells once it is on a worker; returns when each answered (ms
    after the small cell was sent)."""
    small = {"workload": "BFS-TWC", "scale": "small", "seed": 0}
    tiny = [
        {"workload": "KCORE", "scale": "tiny", "seed": 100 + i}
        for i in range(tiny_cells)
    ]
    done: dict[int, float] = {}

    def timed(index: int, request: dict) -> int:
        status = client.run(**request).status
        done[index] = (time.perf_counter() - start) * 1000
        return status

    with tempfile.TemporaryDirectory(prefix="bench-serve-hol-") as tmp:
        with running_server(policy=RunPolicy(cache_dir=tmp, jobs=2)) as (
            _server,
            client,
        ):
            with ThreadPoolExecutor(max_workers=1 + tiny_cells) as pool:
                start = time.perf_counter()
                slow = pool.submit(timed, -1, small)
                deadline = time.monotonic() + 30
                while client.stats()["server"]["batches"]["count"] < 1:
                    assert time.monotonic() < deadline, "small cell never ran"
                    time.sleep(0.005)
                fast = [
                    pool.submit(timed, i, request)
                    for i, request in enumerate(tiny)
                ]
                statuses = [f.result() for f in fast] + [slow.result()]
    assert all(s == 200 for s in statuses), f"non-200 in bench: {statuses}"
    tiny_ms = [round(done[i], 3) for i in range(tiny_cells)]
    return {
        "small_ms": round(done[-1], 3),
        "tiny_ms": tiny_ms,
        "tiny_before_small": max(tiny_ms) < done[-1],
    }


def collect(quick: bool = False) -> dict:
    cells = 6 if quick else 12
    warm_rounds = 2 if quick else 4
    concurrency = 4 if quick else 8
    dedupe_n = 8 if quick else 16
    mix = request_mix(cells)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        with running_server(
            policy=RunPolicy(cache_dir=tmp), queue_limit=256
        ) as (server, client):
            start = time.perf_counter()
            cold_lat = _issue(client, mix, concurrency)
            cold_wall = time.perf_counter() - start

            warm_requests = mix * warm_rounds
            start = time.perf_counter()
            warm_lat = _issue(client, warm_requests, concurrency)
            warm_wall = time.perf_counter() - start

            baseline_stats = client.stats()
            base_misses = baseline_stats["run_cache"]["misses"]
            burst = [dict(mix[0], seed=991)] * dedupe_n
            start = time.perf_counter()
            burst_lat = _issue(client, burst, min(dedupe_n, 8))
            burst_wall = time.perf_counter() - start
            stats = client.stats()
            burst_executions = stats["run_cache"]["misses"] - base_misses

            server_stats = stats["server"]

    report = {
        "quick": quick,
        "mix_cells": cells,
        "concurrency": concurrency,
        "cold": _phase(cold_lat, cold_wall),
        "warm": _phase(warm_lat, warm_wall),
        "dedupe_burst": {
            **_phase(burst_lat, burst_wall),
            "fan_in": dedupe_n,
            "executions": burst_executions,
        },
        "head_of_line": head_of_line(tiny_cells=2 if quick else 3),
        "server": {
            "cache_hit_rate": round(server_stats["cache"]["hit_rate"], 4),
            "dedupe_hits": server_stats["dedupe_hits"],
            "batches": server_stats["batches"],
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    assert burst_executions <= 1, (
        f"dedupe burst ran {burst_executions} cells; expected at most one "
        "(0 when the prior mix already cached the cell)"
    )
    return report


def check_against(
    report: dict, baseline_path: pathlib.Path, tolerance: float, p99_limit: float
) -> int:
    failures = []
    warm_p99 = report["warm"]["latency_ms"]["p99"]
    if warm_p99 >= p99_limit:
        failures.append(
            f"warm-cache p99 {warm_p99:.1f} ms >= limit {p99_limit:.1f} ms"
        )
    hol = report["head_of_line"]
    if not hol["tiny_before_small"]:
        failures.append(
            f"head-of-line blocking: tiny cells answered at {hol['tiny_ms']} ms, "
            f"not all before the small cell at {hol['small_ms']} ms"
        )
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        base_rps = baseline["warm"]["req_per_s"]
        got_rps = report["warm"]["req_per_s"]
        if got_rps < base_rps * (1 - tolerance):
            failures.append(
                f"warm throughput {got_rps:.1f} req/s regressed past "
                f"{tolerance:.0%} of baseline {base_rps:.1f} req/s"
            )
    else:
        print(f"note: baseline {baseline_path} missing; p99 gate only")
    print(json.dumps(report, indent=1, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: warm p99 {warm_p99:.1f} ms < {p99_limit:.1f} ms, "
        f"warm {report['warm']['req_per_s']:.1f} req/s, "
        f"cold {report['cold']['req_per_s']:.1f} req/s"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (smaller mix); skips writing the report file",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, metavar="BASELINE",
        help="gate against BENCH_serve.json; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional warm-throughput drop vs baseline (default 0.5)",
    )
    parser.add_argument(
        "--p99-limit", type=float, default=50.0,
        help="hard ceiling for warm-cache p99 latency in ms (default 50)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT,
        help=f"output path for the full-run report (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    report = collect(quick=args.quick)
    if args.check is not None:
        return check_against(report, args.check, args.tolerance, args.p99_limit)
    print(json.dumps(report, indent=1, sort_keys=True))
    if not args.quick:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
