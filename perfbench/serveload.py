"""The ``serve`` workload: a ``repro-serve`` subprocess under closed-loop load.

The server runs in its own process (``python -m repro.serve --port 0
--ready-file ...``) with a 2-worker supervised pool and a fresh cache
directory, so the load generator never shares its interpreter lock.  Two
client threads, one per CPU, replay one seeded request stream in a
closed loop: each sends a request, waits for the reply and takes the
next, the way ``repro-serve`` callers behave.  The stream runs block by
block, and host speed is sampled between blocks.

Every block of ``BLOCK`` requests mixes mostly repeats of cells already
served (warm hits, run-cache reads), four first-time tiny cells (cold
misses through batching, the pool and cache writes), two first-time
cells each sent twice in a row (concurrent duplicates, dedupe) and one
first-time small cell (a slow miss beside fast ones, exposing batch
head-of-line blocking).  Every payload is checked against the
reference digest of the same cell run serially.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from statistics import median

import cells as C
from ledger import payload_digest, percentile

CLIENTS = 2
WORKERS = 2
#: Requests per block; ``wall_s`` is the mean time a block takes.
BLOCK = 60
#: The first-time requests in every block; the rest are repeats.
MISSES = ["new"] * 4 + ["dup"] * 2 + ["small"]
#: Cells served before measuring starts, so the first block has hits.
WARM_CELLS = 12
#: Repeats never target the last few new cells: their first request may
#: still be in flight, which would make the repeat a dedupe, not a hit.
REPEAT_LAG = 4
SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0
#: Requests in the pool-overhead probe of a traced run.
POOL_PROBE_CELLS = 20


def request_stream(seed: int, reference: dict) -> tuple[list, list]:
    """``(warm cells, [(kind, cell), ...])``, a pure function of ``seed``.

    Kinds: ``repeat``, ``new``, ``dup`` (a new cell sent twice in a row)
    and ``small`` (a new small-scale cell).  First-time cells cycle
    through their shape lists (preset, workload, scale, ratio) in one
    order for every seed; the seed picks each cycle's graph seed, the
    order of kinds in each block and the cell each repeat asks for.
    Runs on different seeds therefore simulate near-identical work, so
    their timings compare.  The stream ends when either first-time pool
    runs out, so it never degenerates into all hits.
    """
    rng = random.Random(seed)

    def first_time(grid, graph_seeds):
        # A fixed interleaving, so cheap and costly shapes alternate.
        shapes = random.Random(0).sample(grid, len(grid))
        rng.shuffle(graph_seeds)
        return [
            cell
            for s in graph_seeds
            for cell in C.cells(shapes, s)
            if cell.key in reference
        ]

    tiny = first_time(C.SERVE_TINY, list(range(C.SERVE_SEEDS)))
    small = first_time(C.SERVE_SMALL, list(range(C.SERVE_SMALL_SEEDS)))
    warm, tiny = tiny[:WARM_CELLS], tiny[WARM_CELLS:]
    tiny.reverse()
    small.reverse()
    served = list(warm)
    stream: list[tuple[str, C.Cell]] = []
    while len(tiny) >= MISSES.count("new") + MISSES.count("dup") and small:
        kinds = MISSES + ["repeat"] * (BLOCK - len(MISSES) - MISSES.count("dup"))
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "repeat":
                cell = rng.choice(served[: max(1, len(served) - REPEAT_LAG)])
                stream.append((kind, cell))
                continue
            cell = small.pop() if kind == "small" else tiny.pop()
            stream.append((kind, cell))
            if kind == "dup":
                stream.append((kind, cell))
            served.append(cell)
    return warm, stream


class Server:
    """One ``repro-serve`` subprocess, booted and ready."""

    def __init__(self, tmp, index: int) -> None:
        from repro.serve.client import ServeClient

        ready = tmp / f"ready-{index}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
        )
        self.log = open(tmp / f"server-{index}.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--ready-file", str(ready),
                "--jobs", str(WORKERS),
                "--cache-dir", str(tmp / f"cache-{index}"),
                "--queue-limit", "256",
                "--quiet",
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            port = self._wait_ready(ready)
            self.client = ServeClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)
            self._wait_workers()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, ready) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.proc.returncode}")
            try:
                return json.loads(ready.read_text())["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
        raise TimeoutError("repro-serve did not become ready")

    def _wait_workers(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            workers = self.client.healthz()["workers"]
            if workers["workers_alive"] == workers["workers_target"]:
                return
            time.sleep(0.002)
        raise TimeoutError("repro-serve pool workers did not come up")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def boot(tmp, index: int, clock) -> tuple[Server, float]:
    """A ready server and its boot time in reference seconds."""
    speed = clock.speed()
    start = time.perf_counter()
    server = Server(tmp, index)
    return server, (time.perf_counter() - start) * speed


class Load:
    """The closed-loop clients and what they observed."""

    def __init__(self, client, stream, checker) -> None:
        self.client = client
        self.stream = stream
        self.checker = checker
        self.next = 0
        self.lock = threading.Lock()
        self.hit_ms: list[float] = []
        self.miss_ms: list[float] = []
        self.errors: list[BaseException] = []

    def send(self, cell) -> None:
        start = time.perf_counter()
        response = self.client.run(**cell.request())
        ms = (time.perf_counter() - start) * 1000
        ok = response.status == 200
        envelope = response.json() if ok else {}
        digest = payload_digest(envelope["result"]) if ok else ""
        with self.lock:
            self.checker.attempted += 1
            if not ok:
                self.checker.fail(f"{cell.key}: HTTP {response.status}")
                return
            (self.hit_ms if envelope["cached"] else self.miss_ms).append(ms)
            self.checker.check_digest(cell, digest, "served")

    def client_loop(self, end: int) -> None:
        try:
            while True:
                with self.lock:
                    if self.next >= end:
                        return
                    _, cell = self.stream[self.next]
                    self.next += 1
                self.send(cell)
        except BaseException as exc:  # surfaced by run_to() after join
            self.errors.append(exc)

    def run_to(self, end: int) -> float:
        """Replay the stream up to index ``end``; returns the seconds it took."""
        threads = [
            threading.Thread(target=self.client_loop, args=(min(end, len(self.stream)),))
            for _ in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise self.errors[0]
        return time.perf_counter() - start


def pool_overhead_ms(seed: int, checker) -> list[float]:
    """Per-cell ``SupervisedPool.run`` time minus in-process time."""
    from repro.experiments.common import run_cells
    from repro.pool import PoolConfig, SupervisedPool

    rng = random.Random(seed)
    probe = [c for c in C.cells(C.SERVE_TINY, seed % C.SERVE_SEEDS) if c.workload == "KCORE"]
    probe = [rng.choice(probe) for _ in range(POOL_PROBE_CELLS)]
    inproc = []
    for cell in probe:
        start = time.perf_counter()
        run_cells([cell.spec()], use_cache=False)
        inproc.append(time.perf_counter() - start)
    overhead = []
    # Workers fork after the in-process runs, so they inherit the built
    # traces: the difference is dispatch, IPC and supervision alone.
    with SupervisedPool(PoolConfig(workers=WORKERS)) as pool:
        pool.start()
        for cell, local in zip(probe, inproc):
            start = time.perf_counter()
            [outcome] = pool.run([cell.spec().resolved()])
            overhead.append((time.perf_counter() - start - local) * 1000)
            checker.attempted += 1
            checker.check_result(cell, outcome, "pool")
    return overhead


def run(seed: int, seconds: float, trace: bool, tmp, checker, clock) -> tuple[dict, dict]:
    warm, stream = request_stream(seed, checker.reference)
    setups = []
    for index in range(SETUP_REPEATS):
        server, seconds_to_ready = boot(tmp, index, clock)
        setups.append(seconds_to_ready)
        if index < SETUP_REPEATS - 1:
            server.stop()
    try:
        Load(server.client, [("warm", cell) for cell in warm], checker).run_to(len(warm))
        # Blocks run back to back; host speed is sampled between them,
        # while both CPUs are otherwise idle.
        load = Load(server.client, stream, checker)
        blocks = []
        start = time.monotonic()
        while load.next < len(stream) and time.monotonic() - start < seconds:
            speed = clock.speed()
            blocks.append(load.run_to(load.next + BLOCK) * speed)
        stats = server.client.stats()
    finally:
        server.stop()
    # A mean, not a median: a block's time hinges on whether its slow
    # miss lands on a worker that must first build the small trace, so
    # block times are bimodal and only their mean is steady.
    e2e = {"setup_s": median(setups), "wall_s": sum(blocks) / len(blocks)}
    front, pool_stats = stats["server"], stats["pool"]
    layers = {
        "serve.hits": len(load.hit_ms),
        "serve.misses": len(load.miss_ms),
        "serve.hit_ms.p50": percentile(load.hit_ms, 50),
        "serve.hit_ms.p90": percentile(load.hit_ms, 90),
        "serve.miss_ms.p50": percentile(load.miss_ms, 50),
        "serve.miss_ms.p90": percentile(load.miss_ms, 90),
        "serve.batches": front["batches"]["count"],
        "serve.batch_size.mean": front["batches"]["mean_size"],
        "serve.dedupe_hits": front["dedupe_hits"],
        "serve.cache_hit_rate": front["cache"]["hit_rate"],
        "serve.rejected": front["requests_finished"]["rejected"],
        "pool.restarts": pool_stats["restarts"],
        "pool.crashes": pool_stats["crashes"],
        "pool.heartbeat_misses": pool_stats["heartbeat_misses"],
    }
    if trace:
        layers["pool.overhead_ms.p50"] = percentile(
            pool_overhead_ms(seed, checker), 50
        )
    return e2e, layers
