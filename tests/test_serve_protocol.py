"""Serve wire-protocol lock: schema validation, negatives, golden envelopes.

Every client-provokable failure — malformed framing, invalid JSON,
schema violations, oversize bodies, wrong methods/paths — must come back
as a *structured JSON error envelope* on the right HTTP status, never a
dropped connection.  The exact envelopes are pinned in
``tests/golden/serve/envelopes.json`` (regenerate with
``PYTHONPATH=src python tests/test_serve_protocol.py --regenerate`` only
after an intentional protocol change) so accidental drift in codes,
messages, or field witnesses fails loudly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import (
    ProtocolError,
    RequestTooLargeError,
    ServeError,
    ServerSaturatedError,
    ServerShutdownError,
)
from repro.experiments.common import RunPolicy
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    error_envelope,
    http_status_of,
    ok_envelope,
    validate_run_request,
)
from repro.serve.testing import running_server

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serve" / "envelopes.json"

#: Wire-level negative cases: name -> request bytes builder inputs.
#: ``body`` of None means no body at all; ``raw`` sends arbitrary bytes.
WIRE_CASES: dict[str, dict] = {
    "missing_workload": {"method": "POST", "path": "/v1/run", "json": {}},
    "unknown_workload": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "NOPE"},
    },
    "unknown_field": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "wat": 1, "zzz": 2},
    },
    "bad_type_seed": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "seed": "zero"},
    },
    "bool_where_int_expected": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "seed": True},
    },
    "bad_ratio": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "ratio": 9},
    },
    "bad_preset": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "preset": "WARP-DRIVE"},
    },
    "bad_scale": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "scale": "galactic"},
    },
    "bad_max_events": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "max_events": 0},
    },
    "bad_timeout": {
        "method": "POST",
        "path": "/v1/run",
        "json": {"workload": "KCORE", "timeout": -1},
    },
    "payload_not_an_object": {
        "method": "POST",
        "path": "/v1/run",
        "json": ["KCORE"],
    },
    "empty_body": {"method": "POST", "path": "/v1/run", "body": b""},
    "invalid_json": {"method": "POST", "path": "/v1/run", "body": b"{nope"},
    "method_not_allowed": {"method": "GET", "path": "/v1/run"},
    "not_found": {"method": "GET", "path": "/v1/nowhere"},
    "malformed_request_line": {"raw": b"GARBAGE\r\n\r\n"},
    "bad_content_length": {
        "raw": b"POST /v1/run HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
    },
    "chunked_request_body": {
        "raw": (
            b"POST /v1/run HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
    },
}

#: Envelope-construction cases that can't be provoked deterministically
#: over the wire (live counts/timing vary): name -> exception factory.
UNIT_CASES = {
    "shutting_down": lambda: ServerShutdownError(
        "server is draining; request refused"
    ),
    "saturated": lambda: ServerSaturatedError(
        "admission queue is full (64 in flight)", retry_after=3
    ),
    "internal_error": lambda: RuntimeError("boom"),
}


def _send(client, case: dict):
    """Issue one wire case; returns (status, envelope)."""
    if "raw" in case:
        data = client.raw(case["raw"])
        from repro.serve.client import _parse_response

        response = _parse_response(data)
    else:
        body = case.get("body")
        if "json" in case:
            body = json.dumps(case["json"]).encode()
        response = client.request(case["method"], case["path"], body=body)
    return response.status, response.json()


def wire_payload() -> dict:
    """Run every wire case against a live server; collect envelopes."""
    import tempfile

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        with running_server(
            policy=RunPolicy(cache_dir=tmp)
        ) as (_server, client):
            for name, case in sorted(WIRE_CASES.items()):
                status, envelope = _send(client, case)
                out[name] = {"status": status, "envelope": envelope}
    return out


def unit_payload() -> dict:
    return {
        name: {
            "status": http_status_of(error_envelope(factory())),
            "envelope": error_envelope(factory()),
        }
        for name, factory in sorted(UNIT_CASES.items())
    }


def golden_payload() -> dict:
    return {"wire": wire_payload(), "unit": unit_payload()}


# ----------------------------------------------------------------------
# Golden lock
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with "
        "PYTHONPATH=src python tests/test_serve_protocol.py --regenerate"
    )
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-cache")
    with running_server(policy=RunPolicy(cache_dir=cache)) as (server, client):
        yield server, client


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_wire_envelope_matches_golden(name, golden, live_server):
    _server, client = live_server
    status, envelope = _send(client, WIRE_CASES[name])
    expected = golden["wire"][name]
    assert status == expected["status"]
    assert envelope == expected["envelope"]


@pytest.mark.parametrize("name", sorted(UNIT_CASES))
def test_unit_envelope_matches_golden(name, golden):
    exc = UNIT_CASES[name]()
    envelope = error_envelope(exc)
    expected = golden["unit"][name]
    assert http_status_of(envelope) == expected["status"]
    assert envelope == expected["envelope"]


def test_every_error_envelope_is_structured(golden):
    """Invariant over the whole golden corpus: version, status, code."""
    for section in golden.values():
        for name, pinned in section.items():
            envelope = pinned["envelope"]
            assert envelope["v"] == PROTOCOL_VERSION, name
            assert envelope["status"] == "error", name
            error = envelope["error"]
            assert error["code"], name
            assert error["http_status"] == pinned["status"], name
            assert error["message"], name


# ----------------------------------------------------------------------
# Success-path envelopes (live)
# ----------------------------------------------------------------------
class TestSuccessEnvelopes:
    def test_unary_run_envelope_shape(self, live_server):
        _server, client = live_server
        response = client.run(workload="KCORE", scale="tiny")
        assert response.status == 200
        envelope = response.json()
        assert envelope["v"] == PROTOCOL_VERSION
        assert envelope["status"] == "ok"
        assert envelope["cached"] is False
        assert envelope["deduped"] is False
        assert envelope["request_id"].startswith("r")
        assert envelope["result"]["workload"] == "KCORE"
        assert envelope["result"]["exec_cycles"] > 0

    def test_warm_repeat_is_cached(self, live_server):
        _server, client = live_server
        first = client.run(workload="KCORE", scale="tiny", seed=7)
        second = client.run(workload="KCORE", scale="tiny", seed=7)
        assert first.json()["cached"] is False
        assert second.json()["cached"] is True
        assert second.json()["result"] == first.json()["result"]

    def test_stream_event_sequence(self, live_server):
        _server, client = live_server
        response = client.run_stream(workload="BFS-TWC", scale="tiny")
        assert response.status == 200
        assert response.headers["transfer-encoding"] == "chunked"
        assert response.headers["content-type"] == "application/x-ndjson"
        events = response.events()
        names = [e["event"] for e in events]
        assert names[0] == "accepted"
        assert names[-2:] == ["result", "done"]
        result_event = events[-2]
        assert result_event["result"]["workload"] == "BFS-TWC"

    def test_stream_cached_sequence(self, live_server):
        _server, client = live_server
        client.run(workload="BFS-TWC", scale="tiny", seed=3)
        events = client.run_stream(
            workload="BFS-TWC", scale="tiny", seed=3
        ).events()
        assert [e["event"] for e in events] == ["accepted", "result", "done"]
        assert events[0]["cached"] is True
        assert events[1]["cached"] is True

    def test_healthz_stats_presets(self, live_server):
        _server, client = live_server
        health = client.healthz()
        assert health["status"] == "ok" and health["healthy"] is True
        client.run(workload="KCORE", scale="tiny")
        stats = client.stats()
        assert stats["server"]["requests_received"] > 0
        assert "run_cache" in stats
        presets = client.presets()
        assert "KCORE" in presets["workloads"]
        assert "TO+UE" in presets["presets"]
        assert presets["defaults"]["scale"] == "tiny"

    def test_responses_always_close_connection(self, live_server):
        _server, client = live_server
        response = client.get("/v1/healthz")
        assert response.headers["connection"] == "close"


# ----------------------------------------------------------------------
# Validation unit coverage (no server)
# ----------------------------------------------------------------------
class TestValidateRunRequest:
    def test_defaults_filled(self):
        fields = validate_run_request({"workload": "kcore"})
        assert fields["workload"] == "KCORE"  # canonicalised
        assert fields["preset"] == "TO+UE"  # "TO_UE" alias resolves
        assert fields["scale"] == "tiny"
        assert fields["stream"] is False

    def test_field_witness_on_errors(self):
        cases = {
            "workload": {},
            "seed": {"workload": "KCORE", "seed": -1},
            "ratio": {"workload": "KCORE", "ratio": 0},
            "max_events": {"workload": "KCORE", "max_events": -5},
            "fault_handling_cycles": {
                "workload": "KCORE",
                "fault_handling_cycles": 0,
            },
        }
        for field, payload in cases.items():
            with pytest.raises(ProtocolError) as excinfo:
                validate_run_request(payload)
            assert excinfo.value.field == field

    def test_serve_errors_are_repro_errors(self):
        """The serve taxonomy folds into the repo-wide error contract."""
        from repro.errors import ReproError

        for exc in (
            ProtocolError("x"),
            RequestTooLargeError("x"),
            ServerSaturatedError("x"),
            ServerShutdownError("x"),
        ):
            assert isinstance(exc, ReproError)
            assert isinstance(exc, ServeError)
            assert exc.http_status >= 400
            assert exc.code

    def test_ok_envelope_shape(self):
        envelope = ok_envelope(result={"a": 1})
        assert envelope == {
            "v": PROTOCOL_VERSION,
            "status": "ok",
            "result": {"a": 1},
        }
        assert http_status_of(envelope) == 200


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: test_serve_protocol.py --regenerate")
