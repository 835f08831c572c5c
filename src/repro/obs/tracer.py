"""Span/instant tracer with bounded storage and named tracks.

The :class:`Tracer` is the timeline half of the observability layer: it
records *spans* (named intervals with begin/end or explicit start/finish
times) and *instant* events onto named **tracks** ("batches", "dma.h2d",
"sm0", ...), grouped into **scopes**.  A scope maps to one process group
in the exported Chrome trace; each simulation run opens its own scope so
several runs in one session never interleave on the same tracks.

Two time domains coexist:

* ``sim`` scopes record timestamps in simulated cycles (1 cycle = 1 ns at
  the paper's 1 GHz clock); the exporter converts to trace microseconds.
* the built-in ``wall`` scope 0 ("harness") records wall-clock
  microseconds since the tracer was created — used by the experiment
  harness for per-cell spans.

Storage is a bounded ring: once ``max_events`` events are held, further
events are counted in ``dropped`` instead of growing the buffer, so
tracing can never blow up a long simulation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class TraceEvent:
    """One recorded trace event (span edge, complete span, or instant)."""

    __slots__ = ("scope", "track", "name", "ph", "ts", "dur", "args")

    def __init__(
        self,
        scope: int,
        track: str,
        name: str,
        ph: str,
        ts: float,
        dur: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.scope = scope
        self.track = track
        self.name = name
        self.ph = ph  # Chrome phase: "X" complete, "B"/"E" nested, "i" instant
        self.ts = ts
        self.dur = dur
        self.args = args

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.ph} {self.track}/{self.name} "
            f"ts={self.ts} dur={self.dur})"
        )


class Tracer:
    """Bounded recorder of spans and instants on named tracks."""

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        #: (label, domain) per scope; scope 0 is the wall-clock harness.
        self._scopes: list[tuple[str, str]] = [("harness", "wall")]
        #: (scope, track) -> tid, assigned in first-use order per scope.
        self._tracks: dict[tuple[int, str], int] = {}
        self._track_counts: dict[int, int] = {}
        #: Open begin/end span stacks per (scope, track).
        self._stacks: dict[tuple[int, str], list[str]] = {}
        #: Scope receiving events from the plain emit methods.
        self.scope = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Scopes and tracks
    # ------------------------------------------------------------------
    def open_scope(self, label: str, domain: str = "sim") -> int:
        """Register a new scope (one process group in the export)."""
        if domain not in ("sim", "wall"):
            raise ValueError(f"unknown scope domain {domain!r}")
        self._scopes.append((label, domain))
        return len(self._scopes) - 1

    def set_scope(self, scope: int) -> int:
        """Switch the active scope; returns the previous one."""
        if not 0 <= scope < len(self._scopes):
            raise ValueError(f"unknown scope {scope}")
        previous = self.scope
        self.scope = scope
        return previous

    def scopes(self) -> list[tuple[str, str]]:
        """(label, domain) pairs, indexed by scope id."""
        return list(self._scopes)

    def tracks(self) -> dict[tuple[int, str], int]:
        """(scope, track name) -> tid mapping, in first-use order."""
        return dict(self._tracks)

    def _tid(self, scope: int, track: str) -> int:
        key = (scope, track)
        tid = self._tracks.get(key)
        if tid is None:
            tid = self._track_counts.get(scope, 0)
            self._track_counts[scope] = tid + 1
            self._tracks[key] = tid
        return tid

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self._tid(event.scope, event.track)
        self.events.append(event)

    def instant(self, track: str, name: str, ts: float, **args: Any) -> None:
        """Record a zero-duration marker at ``ts``."""
        self._emit(TraceEvent(self.scope, track, name, "i", ts, None, args or None))

    def complete(
        self, track: str, name: str, start: float, end: float, **args: Any
    ) -> None:
        """Record a span with explicit start/end times (Chrome 'X')."""
        self._emit(
            TraceEvent(
                self.scope, track, name, "X", start, max(0, end - start),
                args or None,
            )
        )

    def begin(self, track: str, name: str, ts: float, **args: Any) -> None:
        """Open a nested span on ``track``; close it with :meth:`end`."""
        self._stacks.setdefault((self.scope, track), []).append(name)
        self._emit(TraceEvent(self.scope, track, name, "B", ts, None, args or None))

    def end(self, track: str, ts: float, **args: Any) -> None:
        """Close the innermost open span on ``track``."""
        stack = self._stacks.get((self.scope, track))
        if not stack:
            raise ValueError(f"end() without begin() on track {track!r}")
        name = stack.pop()
        self._emit(TraceEvent(self.scope, track, name, "E", ts, None, args or None))

    def open_spans(self, track: str, scope: int | None = None) -> list[str]:
        """Names of the currently open nested spans on ``track``."""
        key = (self.scope if scope is None else scope, track)
        return list(self._stacks.get(key, ()))

    # ------------------------------------------------------------------
    # Wall-clock helpers (harness scope 0)
    # ------------------------------------------------------------------
    def wall_now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (time.perf_counter() - self._epoch) * 1e6

    @contextmanager
    def wall_span(self, track: str, name: str, **args: Any) -> Iterator[None]:
        """Context manager recording a wall-clock span in the harness scope."""
        start = self.wall_now_us()
        try:
            yield
        finally:
            end = self.wall_now_us()
            self._emit(
                TraceEvent(0, track, name, "X", start, max(0.0, end - start),
                           args or None)
            )

    def wall_instant(self, track: str, name: str, **args: Any) -> None:
        """Record a wall-clock instant in the harness scope."""
        self._emit(
            TraceEvent(0, track, name, "i", self.wall_now_us(), None, args or None)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def of_track(self, track: str, scope: int | None = None) -> list[TraceEvent]:
        """All events on ``track`` (any scope unless ``scope`` is given)."""
        return [
            e
            for e in self.events
            if e.track == track and (scope is None or e.scope == scope)
        ]

    def track_names(self) -> set[str]:
        return {track for _, track in self._tracks}

    def __len__(self) -> int:
        return len(self.events)
