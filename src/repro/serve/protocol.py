"""Serve protocol: request schema, response envelopes, result payloads.

The wire format is deliberately small and hand-validated (no external
schema dependency):

* **Run request** (``POST /v1/run``) — a JSON object naming one
  simulation cell.  Only ``workload`` is required; everything else
  defaults to the single-run CLI's defaults, so the server's answer for
  a given request is *bit-identical* to ``repro-run`` with the same
  parameters (locked by ``tests/test_serve_concurrency.py``).
* **Response envelope** — every response (success or failure) is one
  JSON object with ``{"v": 1, "status": "ok"|"error", ...}``.  Error
  envelopes carry ``error.code`` (stable, machine-readable),
  ``error.http_status`` and a human message; nothing is ever signalled
  by dropping the connection.
* **Event stream** (``"stream": true``) — chunked JSONL; each line is
  ``{"event": ...}`` (``accepted``, ``batched``, ``running``,
  ``result``/``error``, ``done``).

Validation failures raise :class:`~repro.errors.ProtocolError` with a
``field`` witness; the golden envelopes are pinned in
``tests/golden/serve/envelopes.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Mapping

from repro import systems
from repro.errors import CellFailure, ProtocolError, ServeError
from repro.experiments.common import (
    MAX_EVENTS,
    RunPolicy,
    RunSpec,
    default_policy,
)
from repro.simulator import SimulationResult
from repro.workloads.registry import SCALES, workload_names

#: Envelope/protocol version; bump on incompatible changes.
PROTOCOL_VERSION = 1

#: The run-request schema: ``name -> (types, default)``.  ``workload``
#: is the only required field (default ``None`` + explicit check).
RUN_REQUEST_FIELDS: dict[str, tuple[tuple[type, ...], Any]] = {
    "workload": ((str,), None),
    "preset": ((str,), "TO_UE"),
    "scale": ((str,), "tiny"),
    "ratio": ((int, float, type(None)), None),
    "fault_handling_cycles": ((int, type(None)), None),
    "seed": ((int,), 0),
    "max_events": ((int,), MAX_EVENTS),
    "timeout": ((int, float, type(None)), None),
    "stream": ((bool,), False),
    "no_cache": ((bool,), False),
}


def validate_run_request(payload: object) -> dict:
    """Check a decoded ``POST /v1/run`` body against the schema.

    Returns the normalised field dict (defaults filled, workload
    upper-cased, preset canonicalised); raises :class:`ProtocolError`
    naming the offending ``field`` otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            "run request must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(RUN_REQUEST_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(unknown)}",
            field=unknown[0],
        )

    fields: dict[str, Any] = {}
    for name, (types, default) in RUN_REQUEST_FIELDS.items():
        value = payload.get(name, default)
        # bool is an int subclass: reject True where an int is expected.
        if isinstance(value, bool) and bool not in types:
            raise ProtocolError(
                f"field {name!r} must be {_type_names(types)}, got bool",
                field=name,
            )
        if not isinstance(value, types):
            raise ProtocolError(
                f"field {name!r} must be {_type_names(types)}, "
                f"got {type(value).__name__}",
                field=name,
            )
        fields[name] = value

    if fields["workload"] is None:
        raise ProtocolError("missing required field 'workload'", field="workload")
    workload = fields["workload"].upper()
    if workload not in workload_names():
        raise ProtocolError(
            f"unknown workload {fields['workload']!r} "
            f"(known: {', '.join(workload_names())})",
            field="workload",
        )
    fields["workload"] = workload

    try:
        preset = systems.by_name(fields["preset"])
    except KeyError:
        known = ", ".join(sorted(p.name for p in systems.ALL_SYSTEMS))
        raise ProtocolError(
            f"unknown preset {fields['preset']!r} (known: {known})",
            field="preset",
        ) from None
    fields["preset"] = preset.name

    if fields["scale"] not in SCALES:
        raise ProtocolError(
            f"unknown scale {fields['scale']!r} "
            f"(known: {', '.join(sorted(SCALES))})",
            field="scale",
        )
    if fields["ratio"] is not None and not 0 < fields["ratio"] <= 8:
        raise ProtocolError(
            f"field 'ratio' must be in (0, 8], got {fields['ratio']}",
            field="ratio",
        )
    if fields["fault_handling_cycles"] is not None and (
        fields["fault_handling_cycles"] <= 0
    ):
        raise ProtocolError(
            "field 'fault_handling_cycles' must be positive",
            field="fault_handling_cycles",
        )
    if fields["seed"] < 0:
        raise ProtocolError("field 'seed' must be non-negative", field="seed")
    if not 0 < fields["max_events"] <= MAX_EVENTS:
        raise ProtocolError(
            f"field 'max_events' must be in (0, {MAX_EVENTS}]",
            field="max_events",
        )
    if fields["timeout"] is not None and fields["timeout"] <= 0:
        raise ProtocolError(
            "field 'timeout' must be positive seconds", field="timeout"
        )
    return fields


def _type_names(types: tuple[type, ...]) -> str:
    names = [t.__name__ if t is not type(None) else "null" for t in types]
    return "/".join(names)


def spec_from_request(
    fields: Mapping[str, Any], policy: RunPolicy | None = None
) -> RunSpec:
    """Build the :class:`RunSpec` for a validated request under the
    server's ``policy`` (default: the process default; applied, see
    :meth:`RunPolicy.apply`).

    A request ``timeout`` tightens (never loosens) the policy's cell
    timeout.  With a policy checkpoint directory (and ``resume``), a
    stalled cell checkpoints and a re-request resumes it.
    """
    policy = policy or default_policy()
    budgets = [
        b
        for b in (fields.get("timeout"), policy.cell_timeout)
        if b is not None
    ]
    wall = min(budgets) if budgets else None
    return policy.apply(
        RunSpec(
            workload=fields["workload"],
            preset=systems.by_name(fields["preset"]),
            scale=fields["scale"],
            ratio=fields["ratio"],
            fault_handling_cycles=fields["fault_handling_cycles"],
            seed=fields["seed"],
            max_events=fields["max_events"],
            wall_budget_seconds=wall,
        )
    )


# ----------------------------------------------------------------------
# Result payloads (shared with ``repro-run --result-out``)
# ----------------------------------------------------------------------
def result_payload(result: SimulationResult) -> dict:
    """The canonical JSON-safe form of a :class:`SimulationResult`."""
    return asdict(result)


def dump_result_json(result: SimulationResult) -> str:
    """Serialise a result exactly as ``repro-run --result-out`` does.

    One serialiser for both paths is what makes the server's results
    *bit-identical* to the CLI's on the wire, not merely numerically
    equal.
    """
    return json.dumps(result_payload(result), indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def ok_envelope(**payload: Any) -> dict:
    """A success envelope; keyword arguments become top-level fields."""
    return {"v": PROTOCOL_VERSION, "status": "ok", **payload}


def error_envelope(exc: BaseException) -> dict:
    """Map any error onto the structured error envelope.

    :class:`ServeError` subclasses carry their own status/code; anything
    else (a bug) is rendered as a 500 without leaking a traceback.
    """
    if isinstance(exc, ServeError):
        error: dict[str, Any] = {
            "code": exc.code,
            "http_status": exc.http_status,
            "message": str(exc),
        }
        field = exc.context.get("field")
        if field is not None:
            error["field"] = field
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            error["retry_after"] = retry_after
    elif isinstance(exc, CellFailure):
        error = {
            "code": "cell_failed",
            "http_status": 500,
            "message": str(exc),
            "error_type": exc.error_type,
            "workload": exc.workload,
            "attempts": exc.attempts,
        }
        # Poison cells (quarantined by the pool's circuit breaker) name
        # their crash count and the quarantined checkpoint so operators
        # can triage without server access (docs/robustness.md runbook).
        crashes = getattr(exc, "crashes", None)
        if crashes:
            error["crashes"] = crashes
        if exc.checkpoint_path is not None:
            error["checkpoint_path"] = str(exc.checkpoint_path)
    else:
        error = {
            "code": "internal_error",
            "http_status": 500,
            "message": f"{type(exc).__name__}: {exc}",
        }
    return {"v": PROTOCOL_VERSION, "status": "error", "error": error}


def http_status_of(envelope: Mapping[str, Any]) -> int:
    """The HTTP status an envelope should ride on (200 for ok)."""
    if envelope.get("status") == "ok":
        return 200
    return int(envelope["error"].get("http_status", 500))


def encode_envelope(envelope: Mapping[str, Any]) -> bytes:
    """Stable bytes for an envelope: sorted keys, compact separators."""
    return (
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()
