"""Serve concurrency contract: dedupe, batching, backpressure, oracles.

The acceptance properties locked here:

* N concurrent *identical* requests execute the simulation exactly once
  (in-flight dedupe onto one shared future).
* Concurrent *distinct* requests each answer with their own cell's
  result, as soon as it lands: a fast cell never waits for a slow one.
* A full admission queue answers 429 with a Retry-After hint instead of
  queueing unboundedly.
* A client disconnecting mid-stream never poisons the shared future its
  deduped peers are waiting on.
* Randomised interleavings (Hypothesis) always produce results
  *bit-identical* to a serial oracle computed without the server — and
  the serial oracle itself is byte-for-byte what ``repro-run
  --result-out`` writes (one shared serialiser).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import common
from repro.experiments.common import RunPolicy
from repro.serve.protocol import (
    dump_result_json,
    result_payload,
    spec_from_request,
    validate_run_request,
)
from repro.serve.testing import running_server

#: Small request pool shared by the oracle and the randomised tests.
POOL = [
    {"workload": "KCORE", "scale": "tiny", "seed": 0},
    {"workload": "KCORE", "scale": "tiny", "seed": 1},
    {"workload": "BFS-TWC", "scale": "tiny", "seed": 0},
    {"workload": "PR", "scale": "tiny", "seed": 0},
]


def _pool_key(request: dict) -> tuple:
    return (request["workload"], request["seed"])


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Serial, server-free result payloads for every pool request.

    Computed in an isolated cache directory *before* any server runs, so
    the server can never feed the oracle its own answers.
    """
    cache = tmp_path_factory.mktemp("oracle-cache")
    payloads = {}
    policy = RunPolicy(cache_dir=cache)
    for request in POOL:
        spec = spec_from_request(validate_run_request(dict(request)))
        (result,) = common.run_cells([spec], policy=policy)
        payloads[_pool_key(request)] = result_payload(result)
    return payloads


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


def _fan_out(client, requests, stagger: float = 0.0):
    """Issue ``requests`` concurrently; returns responses in order."""

    def fire(args):
        index, request = args
        if stagger:
            time.sleep(stagger * index)
        return client.run(**request)

    with ThreadPoolExecutor(max_workers=max(2, len(requests))) as pool:
        return list(pool.map(fire, enumerate(requests)))


class TestDedupe:
    def test_identical_inflight_requests_execute_once(
        self, tmp_path, oracle
    ):
        n = 6
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path)
        ) as (server, client):
            baseline = client.stats()["run_cache"]
            responses = _fan_out(client, [dict(POOL[0])] * n)
            assert all(r.status == 200 for r in responses)
            for response in responses:
                assert _canon(response.json()["result"]) == _canon(
                    oracle[_pool_key(POOL[0])]
                )
            stats = client.stats()
            executed = stats["run_cache"]["misses"] - baseline["misses"]
            assert executed == 1, f"dedupe failed: {executed} executions"
            finished = stats["server"]["requests_finished"]
            assert finished["ok"] == 1
            # Latecomers that missed the flight window hit the cache.
            assert finished["deduped"] + finished["cached"] == n - 1
            assert stats["server"]["dedupe_hits"] == finished["deduped"]

    def test_no_cache_requests_recompute_but_match(self, tmp_path, oracle):
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path)
        ) as (_server, client):
            first = client.run(**POOL[0], no_cache=True)
            second = client.run(**POOL[0], no_cache=True)
            assert first.json()["cached"] is False
            assert second.json()["cached"] is False
            for response in (first, second):
                assert _canon(response.json()["result"]) == _canon(
                    oracle[_pool_key(POOL[0])]
                )


class TestBatching:
    def test_batched_results_keep_request_identity(self, tmp_path, oracle):
        """Order independence: each response carries *its* cell's result."""
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path)
        ) as (_server, client):
            shuffled = [POOL[2], POOL[0], POOL[3], POOL[1]]
            responses = _fan_out(client, [dict(r) for r in shuffled])
            for request, response in zip(shuffled, responses):
                payload = response.json()["result"]
                assert payload["workload"] == request["workload"]
                assert _canon(payload) == _canon(oracle[_pool_key(request)])


class TestNoHeadOfLineBlocking:
    def test_tiny_cell_answers_while_a_small_cell_runs(self, tmp_path):
        """Each cell settles on its own: on a 2-worker server a tiny cell
        sent while a small one runs takes the idle worker and answers
        first, instead of waiting for the small cell."""
        small = {"workload": "BFS-TWC", "scale": "small", "seed": 0}
        tiny = {"workload": "KCORE", "scale": "tiny", "seed": 3}
        done = {}

        def run(name, request):
            response = client.run(**request)
            done[name] = time.monotonic()
            return response

        with running_server(
            policy=RunPolicy(cache_dir=tmp_path, jobs=2)
        ) as (_server, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                slow = pool.submit(run, "small", small)
                assert _wait_until(lambda: _on_worker(client))
                fast = pool.submit(run, "tiny", tiny)
                assert fast.result(timeout=60).status == 200
                assert slow.result(timeout=120).status == 200
        assert done["tiny"] < done["small"], (
            "the tiny cell waited for the small cell to finish"
        )


class TestBackpressure:
    def test_saturated_server_answers_429_with_retry_after(self, tmp_path):
        slow = {"workload": "BFS-TWC", "scale": "small", "seed": 0}
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path),
            queue_limit=1,
        ) as (_server, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(client.run, **slow)
                # Wait for the dispatch, not a wall-clock guess: the
                # admission slot frees only when the cell settles.
                assert _wait_until(lambda: _on_worker(client))
                second = client.run(**POOL[0])
                assert second.status == 429
                envelope = second.json()
                assert envelope["error"]["code"] == "saturated"
                assert envelope["error"]["retry_after"] >= 1
                assert int(second.headers["retry-after"]) >= 1
                assert first.result().status == 200
            stats = client.stats()["server"]
            assert stats["requests_finished"]["rejected"] >= 1

    def test_rejected_request_succeeds_on_retry(self, tmp_path):
        slow = {"workload": "BFS-TWC", "scale": "small", "seed": 0}
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path),
            queue_limit=1,
        ) as (_server, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(client.run, **slow)
                assert _wait_until(lambda: _on_worker(client))
                rejected = client.run(**POOL[0])
                assert rejected.status == 429
                assert first.result().status == 200
            # Capacity freed: the retry goes through.
            retry = client.run(**POOL[0])
            assert retry.status == 200


class TestDisconnect:
    def test_mid_stream_disconnect_does_not_poison_the_future(
        self, tmp_path, oracle
    ):
        request = dict(POOL[3])
        with running_server(
            policy=RunPolicy(cache_dir=tmp_path)
        ) as (server, client):
            # Hand-rolled streaming request, abandoned after the first
            # event lands.
            body = json.dumps({**request, "stream": True}).encode()
            head = (
                f"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            sock = socket.create_connection(
                (client.host, client.port), timeout=10
            )
            sock.sendall(head + body)
            sock.recv(256)  # wait for the response head / first event
            sock.close()  # abandon mid-flight

            # A deduped peer issued while the cell is still running must
            # ride the same ticket and still succeed.
            response = client.run(**request)
            assert response.status == 200
            assert _canon(response.json()["result"]) == _canon(
                oracle[_pool_key(request)]
            )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if client.stats()["server"]["streams_aborted"] >= 1:
                    break
                time.sleep(0.05)
            assert client.stats()["server"]["streams_aborted"] >= 1


# ----------------------------------------------------------------------
# Randomised interleavings vs the serial oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def interleaving_server(tmp_path_factory):
    cache = tmp_path_factory.mktemp("interleave-cache")
    with running_server(
        policy=RunPolicy(cache_dir=cache)
    ) as (server, client):
        yield server, client


class TestInterleavings:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(POOL) - 1),
            min_size=1,
            max_size=8,
        ),
        stagger_ms=st.integers(min_value=0, max_value=30),
    )
    def test_any_interleaving_matches_serial_oracle(
        self, picks, stagger_ms, interleaving_server, oracle
    ):
        """Whatever mix of concurrent requests arrives — duplicates,
        distinct cells, cache hits, dedupe flights — every response is
        bit-identical to the serial oracle for its cell."""
        _server, client = interleaving_server
        requests = [dict(POOL[i]) for i in picks]
        responses = _fan_out(client, requests, stagger=stagger_ms / 1000.0)
        for request, response in zip(requests, responses):
            assert response.status == 200
            envelope = response.json()
            assert envelope["status"] == "ok"
            assert _canon(envelope["result"]) == _canon(
                oracle[_pool_key(request)]
            )


# ----------------------------------------------------------------------
# Bit-identity with the single-run CLI
# ----------------------------------------------------------------------
class TestCliBitIdentity:
    def test_server_result_equals_repro_run_result_out(self, tmp_path):
        """The wire payload re-serialised with the shared serialiser is
        byte-for-byte what ``repro-run --result-out`` writes."""
        ratio = common.half_ratio("tiny")
        out = tmp_path / "cli-result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "KCORE",
                "--scale",
                "tiny",
                "--system",
                "TO+UE",
                "--ratio",
                str(ratio),
                "--seed",
                "0",
                "--obs",
                "off",
                "--result-out",
                str(out),
            ],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
        )
        cli_bytes = out.read_text()

        with running_server(
            policy=RunPolicy(cache_dir=tmp_path / "serve-cache")
        ) as (_server, client):
            response = client.run(
                workload="KCORE", scale="tiny", ratio=ratio, seed=0
            )
            assert response.status == 200
            payload = response.json()["result"]
        served = (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        assert served == cli_bytes
        # And the shared serialiser module is what both sides use.
        spec = spec_from_request(
            validate_run_request(
                {"workload": "KCORE", "scale": "tiny", "ratio": ratio}
            )
        )
        policy = RunPolicy(cache_dir=tmp_path / "oracle2")
        (result,) = common.run_cells([spec], policy=policy)
        assert dump_result_json(result) == cli_bytes
