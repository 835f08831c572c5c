"""Simulation-as-a-service: an async server over the run cache.

The package splits along protocol/mechanism lines:

* :mod:`repro.serve.http` — minimal stdlib HTTP/1.1 framing.
* :mod:`repro.serve.protocol` — request schema, response envelopes, and
  the result serialiser shared with ``repro-run`` (bit-identity).
* :mod:`repro.serve.server` — admission, dedupe, dispatch, drain.
* :mod:`repro.serve.handlers` — route dispatch and event streams.
* :mod:`repro.serve.client` — blocking client for tests/benchmarks.
* :mod:`repro.serve.testing` — in-process server fixture helpers.
* :mod:`repro.serve.cli` — the ``repro-serve`` entry point.

See ``docs/serving.md`` for the wire protocol and the ops runbook.
"""

from repro.serve.client import ServeClient, ServeResponse
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    dump_result_json,
    error_envelope,
    ok_envelope,
    result_payload,
    validate_run_request,
)
from repro.serve.server import ReproServer, ServeConfig

__all__ = [
    "PROTOCOL_VERSION",
    "ReproServer",
    "ServeConfig",
    "ServeClient",
    "ServeResponse",
    "validate_run_request",
    "result_payload",
    "dump_result_json",
    "ok_envelope",
    "error_envelope",
]
