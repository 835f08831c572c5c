"""Exception taxonomy used across the reproduction package.

Every error accepts keyword *context* — the offending page/frame/batch
ids and whatever else the raise site knows.  Context is folded into the
message (so it survives pickling across worker-process boundaries) and
kept as a ``context`` dict for programmatic inspection, e.g. by the
experiment harness when it converts a failed cell into a
:class:`CellFailure` record.
"""

from __future__ import annotations


def _format_context(context: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in context.items())


def _reconstruct(cls, args, state):
    """Rebuild a pickled :class:`ReproError` without re-running
    ``__init__`` — the message already has the context folded in, and
    re-folding (or re-applying keyword defaults) would garble it."""
    error = Exception.__new__(cls)
    Exception.__init__(error, *args)
    error.__dict__.update(state)
    return error


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``context`` keyword arguments are appended to the message
    (``"msg (page=0x40000, frame=3)"``) and stored on the instance::

        raise SimulationError("page not resident", page=hex(page))
    """

    def __init__(self, message: str = "", **context) -> None:
        self.context = dict(context)
        if context:
            message = f"{message} ({_format_context(context)})"
        super().__init__(message)

    def __reduce__(self):
        return _reconstruct, (type(self), self.args, self.__dict__.copy())


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class InjectionError(ConfigError):
    """A chaos specification is malformed or an injector misbehaved."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A runtime invariant check failed (see :mod:`repro.invariants`).

    Raised by :class:`repro.invariants.InvariantChecker` when the memory
    manager, page table, or batch state machine disagree with each other;
    ``context`` names the violated invariant and the witnesses.
    """


class IllegalTransition(SimulationError):
    """A lifecycle state machine was asked to make an undeclared move.

    Raised by :class:`repro.lifecycle.StateMachine` (and the warp-model
    :class:`~repro.lifecycle.TransitionValidator`) when an event has no
    declared transition out of the current state, or its guard refused.
    ``context`` carries the machine's full state snapshot — name, current
    state, the offending event, and per-event transition counts — plus
    whatever witnesses the caller supplied.
    """

    def __init__(self, message: str = "", **context) -> None:
        super().__init__(message, **context)
        #: Structured machine snapshot (also folded into the message).
        self.machine_snapshot = context.get("snapshot")


class CheckpointError(SimulationError):
    """A simulation checkpoint could not be written, read, or applied.

    Raised by :mod:`repro.checkpoint` for corrupt/truncated files (which
    are quarantined aside as ``*.ckpt.corrupt``), schema-version skew, and
    source-fingerprint mismatches; ``context`` names the file and the
    versions involved.
    """


class SimulationStalledError(SimulationError):
    """The engine stopped making progress (see :class:`repro.invariants.Watchdog`).

    Either simulated time stopped advancing while events kept firing, or
    the run exceeded its wall-clock budget.  ``context`` carries a
    diagnostic state snapshot: engine clock, queue depth, next callbacks,
    and whatever the simulator's snapshot provider added.
    """


class ServeError(ReproError):
    """Base class for the serving layer (:mod:`repro.serve`).

    Every serve error maps onto one HTTP status (``http_status``) and a
    stable machine-readable ``code`` that clients can branch on; the
    server renders them as structured JSON error envelopes instead of
    dropping connections (see ``docs/serving.md``).
    """

    http_status = 500
    code = "internal_error"


class ProtocolError(ServeError):
    """A request violates the serve protocol: malformed HTTP framing,
    invalid JSON, schema violations, unknown routes/presets/workloads.
    ``context`` may carry ``field`` naming the offending request field."""

    http_status = 400
    code = "bad_request"

    @property
    def field(self) -> str | None:
        return self.context.get("field")


class RequestTooLargeError(ProtocolError):
    """The request body exceeds the server's configured limit."""

    http_status = 413
    code = "payload_too_large"


class ServerSaturatedError(ServeError):
    """Admission control refused the request: the queue is full.

    Rendered as ``429 Too Many Requests`` with a ``Retry-After`` header;
    ``retry_after`` is the server's backlog-based estimate in seconds.
    """

    http_status = 429
    code = "saturated"

    def __init__(self, message: str = "", *, retry_after: int = 1, **context) -> None:
        super().__init__(message, retry_after=retry_after, **context)
        self.retry_after = retry_after


class ServerShutdownError(ServeError):
    """The server is draining: queued work is refused or abandoned.

    In-flight cells are allowed to finish (or checkpoint); every request
    still waiting in the admission queue resolves to this error so
    clients see a structured shutdown instead of a dropped connection.
    """

    http_status = 503
    code = "shutting_down"


class PoolError(ReproError):
    """Base class for the supervised worker pool (:mod:`repro.pool`)."""


class WorkerCrashError(PoolError):
    """A pool worker died (or was escalated to SIGKILL) mid-cell.

    Raised *about* a worker, never *by* one: the supervisor constructs it
    in the parent when a worker's process exits, its heartbeats stop, or
    its per-cell deadline expires.  ``context`` names the worker, the
    exit code / signal, and how the supervisor detected the death
    (``cause`` is one of ``exit``, ``heartbeat``, ``deadline``,
    ``spawn``).  The supervisor treats the attached task as resumable —
    the replacement worker picks the cell up from its last
    :class:`~repro.checkpoint.SimCheckpoint`.
    """


class PoolBrokenError(PoolError):
    """The pool itself collapsed: workers could not be (re)spawned.

    Unlike :class:`WorkerCrashError` (one worker, one task), this marks
    pool-wide infrastructure breakage.  The pool heals itself once, in
    place, before it reports this: every slot's spawn-failure count is
    reset and the fleet respawns, so the outstanding cells get a second
    fleet.  Only if that fails too do they resolve to this error, which
    is never retried per cell — it was never the cell's fault.
    """


class LayoutError(ReproError):
    """An address-space layout request could not be satisfied."""


class WorkloadError(ReproError):
    """A workload definition or trace request is invalid."""


class CellFailure(ReproError):
    """Structured record of one failed experiment cell.

    The hardened runner (:func:`repro.experiments.common.run_cells`)
    returns these *in place of* :class:`~repro.simulator.SimulationResult`
    for cells that kept failing after retries, so a sweep completes and
    reports partial data instead of aborting.  Use
    :func:`repro.experiments.common.is_failure` (or ``isinstance``) to
    filter them out of result lists.
    """

    def __init__(
        self,
        message: str = "",
        *,
        workload: str = "?",
        system: str = "?",
        attempts: int = 1,
        error_type: str = "",
        **context,
    ) -> None:
        super().__init__(
            message,
            workload=workload,
            system=system,
            attempts=attempts,
            **({"error_type": error_type} if error_type else {}),
            **context,
        )
        self.workload = workload
        self.system = system
        self.attempts = attempts
        self.error_type = error_type
        #: Flight-recorder dump attached by the harness when the failing
        #: run had batch analytics enabled (see repro.obs.analytics).
        self.flight_recorder: dict | None = None
        #: Path of the checkpoint a stalled run managed to write before
        #: failing for good (see repro.checkpoint) — resumable by hand.
        self.checkpoint_path: str | None = None

    def summary(self) -> str:
        """One-line digest for sweep reports."""
        return (
            f"{self.workload}/{self.system}: {self.error_type or 'error'} "
            f"after {self.attempts} attempt(s) — {self.args[0]}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (runner failure snapshots)."""
        record = {
            "workload": self.workload,
            "system": self.system,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": str(self.args[0]) if self.args else "",
            "context": {k: repr(v) for k, v in self.context.items()},
        }
        if getattr(self, "flight_recorder", None) is not None:
            record["flight_recorder"] = self.flight_recorder
        if getattr(self, "checkpoint_path", None) is not None:
            record["checkpoint_path"] = self.checkpoint_path
        return record


class PoisonCellError(CellFailure):
    """A cell whose memo key tripped the pool's per-key circuit breaker.

    After ``breaker_threshold`` worker crashes on the same memo key, the
    supervisor stops feeding the key to fresh workers (each crash costs a
    worker restart; a deterministic crasher would take the whole fleet
    down one worker at a time) and quarantines it: the key's outcome —
    now and for every later submission to the same pool — is this record,
    and its last checkpoint is set aside as ``*.ckpt.quarantine`` for
    triage (see the poison-cell runbook in ``docs/robustness.md``).

    It *is a* :class:`CellFailure`, so every existing policy applies:
    ``keep-going`` sweeps report it in the cell's slot, the serving layer
    renders it as a ``cell_failed`` error envelope, and failed cells are
    never cached.
    """

    def __init__(
        self,
        message: str = "",
        *,
        crashes: int = 0,
        **kwargs,
    ) -> None:
        kwargs.setdefault("error_type", "PoisonCellError")
        super().__init__(message, crashes=crashes, **kwargs)
        self.crashes = crashes
