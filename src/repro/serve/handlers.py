"""Request handlers: route dispatch, unary responses, event streams.

Handlers never import :mod:`repro.serve.server` (the server passes
itself in), so the dependency arrow stays server → handlers → protocol.

Error discipline: *every* failure a client can provoke — malformed
framing, bad JSON, schema violations, saturation, shutdown — surfaces
as a structured JSON error envelope with the right HTTP status, never a
dropped connection.  The only silent path is the reverse one: a client
that disconnects mid-stream is detached from the shared ticket without
touching its future, so deduped subscribers are unaffected (locked by
``tests/test_serve_concurrency.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time

from repro import systems
from repro.errors import (
    ProtocolError,
    ServeError,
    ServerSaturatedError,
    ServerShutdownError,
)
from repro.serve import http
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RUN_REQUEST_FIELDS,
    encode_envelope,
    error_envelope,
    http_status_of,
    ok_envelope,
    result_payload,
    validate_run_request,
)
from repro.simulator import SimulationResult
from repro.workloads.registry import SCALES, workload_names


async def handle_connection(server, reader, writer) -> None:
    """Serve exactly one request on one connection, then close."""
    try:
        request = await http.read_request(reader, server.config.max_body)
    except ServeError as exc:
        await _write_error(writer, exc)
        return
    if request is None:
        return  # clean EOF before any bytes
    try:
        await _dispatch(server, request, writer)
    except ConnectionError:
        raise  # client went away; the server logs nothing and moves on
    except BaseException as exc:  # noqa: BLE001 — every error becomes an envelope
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        await _write_error(writer, exc)


async def _dispatch(server, request: http.HttpRequest, writer) -> None:
    route = (request.method, request.path)
    if route == ("GET", "/v1/healthz"):
        await _handle_healthz(server, writer)
    elif route == ("GET", "/v1/stats"):
        await _handle_stats(server, writer)
    elif route == ("GET", "/v1/presets"):
        await _handle_presets(writer)
    elif route == ("POST", "/v1/run"):
        await _handle_run(server, request, writer)
    elif request.path in ("/v1/healthz", "/v1/stats", "/v1/presets", "/v1/run"):
        await _send_envelope(
            writer,
            _plain_error(
                405,
                "method_not_allowed",
                f"{request.method} is not supported on {request.path}",
            ),
        )
    else:
        await _send_envelope(
            writer,
            _plain_error(404, "not_found", f"unknown path {request.path!r}"),
        )


# ----------------------------------------------------------------------
# GET endpoints
# ----------------------------------------------------------------------
async def _handle_healthz(server, writer) -> None:
    await _send_envelope(
        writer,
        ok_envelope(
            healthy=True,
            draining=server.draining,
            backlog=server.backlog,
            uptime_s=round(time.monotonic() - server.started_at, 3),
            workers=server.pool_health(),
        ),
    )


async def _handle_stats(server, writer) -> None:
    await _send_envelope(writer, ok_envelope(stats=server.stats()))


async def _handle_presets(writer) -> None:
    defaults = {
        name: default
        for name, (_, default) in RUN_REQUEST_FIELDS.items()
        if name != "workload"
    }
    await _send_envelope(
        writer,
        ok_envelope(
            protocol=PROTOCOL_VERSION,
            workloads=list(workload_names()),
            presets=sorted(p.name for p in systems.ALL_SYSTEMS),
            scales=sorted(SCALES),
            defaults=defaults,
        ),
    )


# ----------------------------------------------------------------------
# POST /v1/run
# ----------------------------------------------------------------------
async def _handle_run(server, request: http.HttpRequest, writer) -> None:
    started = time.monotonic()
    server.metrics.request_started()
    try:
        fields = validate_run_request(request.json())
    except ProtocolError:
        server.metrics.request_finished("rejected", _ms(started))
        raise
    events = asyncio.Queue() if fields["stream"] else None
    try:
        ticket, cached, deduped = server.submit(fields, events)
    except ServerSaturatedError:
        server.metrics.request_finished("rejected", _ms(started))
        raise
    except ServerShutdownError:
        server.metrics.request_finished("shutdown", _ms(started))
        raise

    if events is not None:
        await _stream_run(
            server, writer, ticket, cached, deduped, started, events
        )
        return

    if cached is not None:
        await _send_envelope(
            writer,
            ok_envelope(
                cached=True,
                deduped=False,
                elapsed_ms=_ms(started),
                result=result_payload(cached),
            ),
        )
        server.metrics.request_finished("cached", _ms(started))
        return

    # Shield: a client disconnect cancels this handler, never the shared
    # future other subscribers are waiting on.
    outcome = await asyncio.shield(ticket.future)
    envelope, label = _outcome_envelope(ticket, outcome, deduped, started)
    await _send_envelope(writer, envelope)
    server.metrics.request_finished(label, _ms(started))


def _outcome_envelope(ticket, outcome, deduped: bool, started: float):
    """Map a settled ticket outcome to (envelope, metrics label)."""
    if isinstance(outcome, SimulationResult):
        return (
            ok_envelope(
                request_id=ticket.request_id,
                cached=False,
                deduped=deduped,
                elapsed_ms=_ms(started),
                result=result_payload(outcome),
            ),
            "deduped" if deduped else "ok",
        )
    envelope = error_envelope(outcome)
    envelope["request_id"] = ticket.request_id
    label = "shutdown" if isinstance(outcome, ServerShutdownError) else "failed"
    return envelope, label


# ----------------------------------------------------------------------
# Streaming (chunked JSONL)
# ----------------------------------------------------------------------
async def _stream_run(
    server, writer, ticket, cached, deduped, started, events
) -> None:
    chunked = http.ChunkedWriter(writer)
    try:
        await chunked.open(200)
        await _send_event(
            chunked,
            {
                "event": "accepted",
                "request_id": ticket.request_id if ticket else None,
                "deduped": deduped,
                "cached": cached is not None,
            },
        )
        if cached is not None:
            await _send_event(
                chunked,
                {
                    "event": "result",
                    "cached": True,
                    "elapsed_ms": _ms(started),
                    "result": result_payload(cached),
                },
            )
            await _send_event(chunked, {"event": "done"})
            await chunked.close()
            server.metrics.request_finished("cached", _ms(started))
            return
        label = await _stream_ticket(
            server, chunked, ticket, deduped, started, events
        )
        server.metrics.request_finished(label, _ms(started))
    except (ConnectionError, BrokenPipeError, OSError):
        server.metrics.stream_aborted()
        # The ticket (if any) keeps running for its other subscribers.
    finally:
        if ticket is not None:
            with contextlib.suppress(ValueError):
                ticket.subscribers.remove(events)


async def _stream_ticket(server, chunked, ticket, deduped, started, queue) -> str:
    future = ticket.future
    while not future.done():
        getter = asyncio.ensure_future(queue.get())
        try:
            done, _pending = await asyncio.wait(
                {getter, future},
                timeout=server.config.heartbeat,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if getter in done:
                await _send_event(chunked, getter.result())
                continue
        finally:
            if not getter.done():
                getter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await getter
        if not done:  # pure heartbeat tick
            await _send_event(
                chunked,
                {
                    "event": "running",
                    "request_id": ticket.request_id,
                    "waited_ms": _ms(started),
                },
            )
    while not queue.empty():  # flush events published before settling
        await _send_event(chunked, queue.get_nowait())

    outcome = future.result()
    if isinstance(outcome, SimulationResult):
        await _send_event(
            chunked,
            {
                "event": "result",
                "request_id": ticket.request_id,
                "cached": False,
                "deduped": deduped,
                "elapsed_ms": _ms(started),
                "result": result_payload(outcome),
            },
        )
        label = "deduped" if deduped else "ok"
    else:
        envelope = error_envelope(outcome)
        await _send_event(
            chunked,
            {
                "event": "error",
                "request_id": ticket.request_id,
                "error": envelope["error"],
            },
        )
        label = (
            "shutdown" if isinstance(outcome, ServerShutdownError) else "failed"
        )
    await _send_event(chunked, {"event": "done"})
    await chunked.close()
    return label


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _ms(started: float) -> float:
    return round((time.monotonic() - started) * 1000.0, 3)


def _plain_error(status: int, code: str, message: str) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "status": "error",
        "error": {"code": code, "http_status": status, "message": message},
    }


async def _send_envelope(writer, envelope, extra_headers=None) -> None:
    await http.write_response(
        writer,
        http_status_of(envelope),
        encode_envelope(envelope),
        extra_headers=extra_headers,
    )


async def _send_event(chunked: http.ChunkedWriter, event: dict) -> None:
    await chunked.send(
        (json.dumps(event, sort_keys=True) + "\n").encode()
    )


async def _write_error(writer, exc: BaseException) -> None:
    envelope = error_envelope(exc)
    extra = None
    if isinstance(exc, ServerSaturatedError):
        extra = {"Retry-After": str(exc.retry_after)}
    with contextlib.suppress(ConnectionError, BrokenPipeError, OSError):
        await _send_envelope(writer, envelope, extra)


__all__ = ["handle_connection"]
