"""Typed lifecycle state machines for the simulator's core protocols.

The three load-bearing lifecycles of the reproduction — the UVM runtime's
batch pipeline (drain → preprocess → migrate → replay, the paper's
Figure 2), the per-warp stall/wake protocol, and the engine run loop —
used to live as scattered boolean flags (``_busy``, ``_interrupt_pending``,
``_running``).  This module makes them explicit: each is a declared
:class:`MachineSpec` (states, transitions, guards), and the components
hold live :class:`StateMachine` instances (or share a
:class:`TransitionValidator` for the thousands of per-warp objects).

Why it matters:

* **Illegal moves are structured errors.**  Any undeclared transition
  raises :class:`~repro.errors.IllegalTransition` carrying the machine's
  full state snapshot — name, current state, offending event, per-event
  transition counts — instead of a bare flag-check message.
* **Recovery is first-class.**  ``machine.on_error`` handlers run before
  the error propagates and may *resume* (swallow the event, hold the
  current state) or *redirect* (force a different state), the
  ``handle_error`` pattern from python-statemachine.  The experiment
  harness leans on the declared ``failed → running`` transition to reuse
  an engine after a failed cell.
* **State is enumerable, so the whole simulation is checkpointable.**
  ``repro.checkpoint`` snapshots every machine alongside the queues and
  tables; restore re-enters the declared state rather than guessing at
  flag combinations.
* **The invariant checker gets transition-level hooks for free** — every
  machine's ``observer`` slot fans successful transitions into
  :meth:`repro.invariants.InvariantChecker.on_transition`.

The specs double as documentation: ``python -m repro.lifecycle`` renders
state diagrams (mermaid + transition tables) for ``docs/api.md``, and a
sync test keeps the docs from drifting.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import ConfigError, IllegalTransition

__all__ = [
    "Transition",
    "MachineSpec",
    "StateMachine",
    "TransitionValidator",
    "get_spec",
    "all_specs",
    "render_state_diagram",
    "render_all",
    "BATCH_PIPELINE",
    "ENGINE_LOOP",
    "WARP_LIFECYCLE",
    "WORKER_LIFECYCLE",
]


class Transition(NamedTuple):
    """One declared move: ``event`` takes any ``sources`` state to ``target``.

    ``guard`` (optional) is a predicate of the machine's owning object; a
    falsy return refuses the transition exactly like an undeclared one
    (an :class:`~repro.errors.IllegalTransition` unless an ``on_error``
    handler recovers).  Guards must be module-level functions so machines
    stay picklable inside whole-simulation checkpoints.
    """

    event: str
    sources: tuple[str, ...]
    target: str
    guard: Callable[[object], bool] | None = None


#: Registered specs by name; registered specs pickle *by reference* so a
#: checkpoint written by one process restores against the (possibly
#: newer) declaration in another.
_REGISTRY: dict[str, "MachineSpec"] = {}


def get_spec(name: str) -> "MachineSpec":
    """Look up a registered machine declaration by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown lifecycle machine", machine=name,
            registered=sorted(_REGISTRY),
        ) from None


def all_specs() -> list["MachineSpec"]:
    """Every registered declaration, in registration order."""
    return list(_REGISTRY.values())


class MachineSpec:
    """Immutable declaration of one lifecycle: states, initial, transitions."""

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        initial: str,
        transitions: tuple[Transition, ...],
        register: bool = True,
    ) -> None:
        states = tuple(states)
        if len(set(states)) != len(states):
            raise ConfigError("duplicate states", machine=name)
        if initial not in states:
            raise ConfigError(
                "initial state not declared", machine=name, initial=initial
            )
        lookup: dict[tuple[str, str], Transition] = {}
        for transition in transitions:
            if transition.target not in states:
                raise ConfigError(
                    "transition target not declared",
                    machine=name, event=transition.event,
                    target=transition.target,
                )
            for source in transition.sources:
                if source not in states:
                    raise ConfigError(
                        "transition source not declared",
                        machine=name, event=transition.event, source=source,
                    )
                key = (source, transition.event)
                if key in lookup:
                    raise ConfigError(
                        "duplicate transition",
                        machine=name, event=transition.event, source=source,
                    )
                lookup[key] = transition
        self.name = name
        self.states = states
        self.initial = initial
        self.transitions = tuple(transitions)
        self.events = tuple(
            dict.fromkeys(t.event for t in transitions)
        )
        self._lookup = lookup
        if register:
            if name in _REGISTRY:
                raise ConfigError(
                    "duplicate machine spec name", machine=name
                )
            _REGISTRY[name] = self

    def lookup(self, source: str, event: str) -> Transition | None:
        """The declared transition for ``event`` out of ``source``, if any."""
        return self._lookup.get((source, event))

    def __repr__(self) -> str:
        return (
            f"MachineSpec({self.name!r}, {len(self.states)} states, "
            f"{len(self.transitions)} transitions)"
        )

    def __reduce__(self):
        if _REGISTRY.get(self.name) is self:
            return (get_spec, (self.name,))
        return (
            _rebuild_spec,
            (self.name, self.states, self.initial, self.transitions),
        )


def _rebuild_spec(name, states, initial, transitions) -> MachineSpec:
    """Unpickle an *unregistered* spec (ad-hoc test machines)."""
    return MachineSpec(name, states, initial, transitions, register=False)


class StateMachine:
    """One live machine instance bound to an owning component.

    * :meth:`fire` performs a declared transition, counts it, and notifies
      ``observer(machine_name, event, source, target)``.
    * An undeclared event (or a refused guard) builds an
      :class:`~repro.errors.IllegalTransition` carrying :meth:`snapshot`
      and offers it to each ``on_error`` handler in order; a handler may
      return ``True`` (*resume*: swallow the event, hold the current
      state) or a state name (*redirect*: force that state).  If none
      recovers, the error raises.
    * Pickles cleanly (registered specs by reference) so machines ride
      inside whole-simulation checkpoints — provided observers, guards,
      and handlers are module-level functions or bound methods of
      picklable objects.
    """

    __slots__ = ("spec", "owner", "state", "counts", "observer", "on_error")

    def __init__(self, spec: MachineSpec, owner: object = None) -> None:
        self.spec = spec
        self.owner = owner
        self.state = spec.initial
        self.counts: dict[str, int] = {}
        #: ``observer(machine_name, event, source, target)`` after every
        #: successful transition (invariant hooks, checkpoint triggers).
        self.observer: Callable[[str, str, str, str], None] | None = None
        #: Recovery handlers, tried in order: ``handler(machine, error)``
        #: returns True to resume, a state name to redirect, else declines.
        self.on_error: list[Callable] = []

    def fire(self, event: str, **witness) -> str:
        """Perform ``event``; returns the new state.

        ``witness`` keywords are folded into the error context when the
        transition is illegal (they cost one dict build per call, so keep
        them off ultra-hot paths).
        """
        source = self.state
        transition = self.spec._lookup.get((source, event))
        if transition is not None and (
            transition.guard is None or transition.guard(self.owner)
        ):
            target = transition.target
            self.state = target
            counts = self.counts
            counts[event] = counts.get(event, 0) + 1
            observer = self.observer
            if observer is not None:
                observer(self.spec.name, event, source, target)
            return target
        return self._reject(event, source, transition, witness)

    def _reject(
        self,
        event: str,
        source: str,
        transition: Transition | None,
        witness: dict,
    ) -> str:
        reason = "guard refused" if transition is not None else "no transition"
        error = IllegalTransition(
            f"illegal {self.spec.name} transition: event {event!r} "
            f"in state {source!r} ({reason})",
            snapshot=self.snapshot(),
            **witness,
        )
        for handler in self.on_error:
            outcome = handler(self, error)
            if outcome is True:
                return self.state  # resume: event swallowed, state held
            if isinstance(outcome, str):
                if outcome not in self.spec.states:
                    raise ConfigError(
                        "on_error redirected to an undeclared state",
                        machine=self.spec.name, state=outcome,
                    )
                self.state = outcome
                self.counts[event] = self.counts.get(event, 0) + 1
                observer = self.observer
                if observer is not None:
                    observer(self.spec.name, event, source, outcome)
                return outcome
        raise error

    def snapshot(self) -> dict:
        """JSON-safe digest: machine, state, total + per-event counts."""
        return {
            "machine": self.spec.name,
            "state": self.state,
            "transitions": sum(self.counts.values()),
            "counts": dict(self.counts),
        }

    def detached_copy(self, state: str | None = None) -> "StateMachine":
        """A copy (optionally forced into ``state``) sharing owner/hooks.

        Used by checkpointing to normalise in-flight machines (an engine
        mid-``run()``) back to a restorable state without touching the
        live instance.
        """
        if state is not None and state not in self.spec.states:
            raise ConfigError(
                "cannot copy into undeclared state",
                machine=self.spec.name, state=state,
            )
        clone = StateMachine(self.spec, self.owner)
        clone.state = self.state if state is None else state
        clone.counts = dict(self.counts)
        clone.observer = self.observer
        clone.on_error = list(self.on_error)
        return clone

    def __repr__(self) -> str:
        return f"StateMachine({self.spec.name!r}, state={self.state!r})"


class TransitionValidator:
    """Spec-conformance checker shared by many lightweight objects.

    Warp state lives in the code arrays of a
    :class:`~repro.gpu.warp_soa.WarpStore`; materialising a
    :class:`StateMachine` per warp would bloat it.  Instead one validator
    serves every warp on a simulator: :meth:`check` verifies that a
    protocol-level move is declared, counts it, and forwards to the
    observer.  Under ``check_invariants`` the simulator builds a
    :class:`~repro.gpu.warp_soa.CheckedWarpStore`, whose transition
    methods call :meth:`check` before each move; otherwise no validator
    exists, and the plain store's transitions test nothing.
    """

    __slots__ = ("spec", "counts", "observer")

    def __init__(
        self,
        spec: MachineSpec,
        observer: Callable[[str, str, str, str], None] | None = None,
    ) -> None:
        self.spec = spec
        self.counts: dict[str, int] = {}
        self.observer = observer

    def check(self, event: str, source: str, **witness) -> str:
        """Validate one move; returns the declared target state."""
        transition = self.spec._lookup.get((source, event))
        if transition is None:
            raise IllegalTransition(
                f"illegal {self.spec.name} transition: event {event!r} "
                f"in state {source!r} (no transition)",
                snapshot={**self.snapshot(), "state": source},
                **witness,
            )
        self.counts[event] = self.counts.get(event, 0) + 1
        observer = self.observer
        if observer is not None:
            observer(self.spec.name, event, source, transition.target)
        return transition.target

    def snapshot(self) -> dict:
        return {
            "machine": self.spec.name,
            "transitions": sum(self.counts.values()),
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
# The declared machines
# ----------------------------------------------------------------------
def _arrivals_drained(runtime) -> bool:
    """Batch ``complete`` guard: every scheduled page arrival landed."""
    return runtime is None or runtime._remaining_arrivals == 0


#: The UVM runtime's batch pipeline (paper Figure 2).  ``idle`` waits for
#: a first fault; ``interrupt`` models the scheduled ISR latency;
#: ``preprocess`` drains + dedups the fault buffer and plans transfers;
#: ``migrate`` is the in-flight batch (prefetch/eviction/arrivals).
#: ``begin`` is legal from ``idle`` too: a batch completing with a
#: non-empty fault buffer chains straight into the next one.
BATCH_PIPELINE = MachineSpec(
    "batch-pipeline",
    states=("idle", "interrupt", "preprocess", "migrate"),
    initial="idle",
    transitions=(
        Transition("fault", ("idle",), "interrupt"),
        Transition("begin", ("interrupt", "idle"), "preprocess"),
        Transition("empty", ("preprocess",), "idle"),
        Transition("rearm", ("preprocess",), "interrupt"),
        Transition("dispatch", ("preprocess",), "migrate"),
        Transition("complete", ("migrate",), "idle", guard=_arrivals_drained),
    ),
)

#: The event engine's run loop.  ``start`` is declared from ``failed``
#: as well — the experiment harness reuses an engine after a failed cell
#: (the recovery path PR 3's retry machinery depends on).
ENGINE_LOOP = MachineSpec(
    "engine-loop",
    states=("idle", "running", "failed"),
    initial="idle",
    transitions=(
        Transition("start", ("idle", "failed"), "running"),
        Transition("finish", ("running",), "idle"),
        Transition("fail", ("running",), "failed"),
    ),
)

#: Per-warp stall/wake protocol (the warp store derives its state codes
#: from this spec's state order, and ``WarpState`` mirrors it, so the
#: declaration is the single source of truth).  ``stall`` from ``ready``
#: covers warps whose first access faults before they ever issue;
#: ``finish`` from ``ready`` covers zero-op warps retired at build time.
WARP_LIFECYCLE = MachineSpec(
    "warp",
    states=("ready", "running", "stalled", "suspended", "finished"),
    initial="ready",
    transitions=(
        Transition("issue", ("ready",), "running"),
        Transition("stall", ("running", "ready"), "stalled"),
        Transition("restall", ("stalled",), "stalled"),
        Transition("wake", ("stalled",), "ready"),
        Transition("suspend", ("ready",), "suspended"),
        Transition("preempt", ("running",), "suspended"),
        Transition("resume", ("suspended",), "ready"),
        Transition("retire", ("running",), "ready"),
        Transition("finish", ("running", "ready"), "finished"),
    ),
)


#: One supervised pool worker (:mod:`repro.pool`).  The supervisor holds
#: a machine per worker slot; every observation (a ``ready`` message, an
#: assignment, a missed-heartbeat kill) is a declared transition, so a
#: supervision bug surfaces as an :class:`~repro.errors.IllegalTransition`
#: carrying the worker's snapshot instead of silently corrupting the
#: pool's bookkeeping.  ``crash`` is legal from every live state — a
#: worker can die while spawning (exec failure), while idle (OOM killer),
#: while busy (the interesting case: its cell is resumed elsewhere from
#: its last checkpoint), and while draining.  ``dead`` is terminal: a
#: restart is a *new* worker with a fresh machine, which is what keeps
#: per-worker restart counts honest.
WORKER_LIFECYCLE = MachineSpec(
    "pool-worker",
    states=("spawning", "idle", "busy", "draining", "dead"),
    initial="spawning",
    transitions=(
        Transition("ready", ("spawning",), "idle"),
        Transition("assign", ("idle",), "busy"),
        Transition("complete", ("busy",), "idle"),
        Transition("drain", ("spawning", "idle", "busy"), "draining"),
        Transition("exit", ("draining",), "dead"),
        Transition("crash", ("spawning", "idle", "busy", "draining"), "dead"),
    ),
)


# ----------------------------------------------------------------------
# Documentation rendering (docs/api.md appendix; sync-tested)
# ----------------------------------------------------------------------
def render_state_diagram(spec: MachineSpec) -> str:
    """One machine as a mermaid state diagram plus a transition table."""
    lines = [
        f"#### `{spec.name}`",
        "",
        "```mermaid",
        "stateDiagram-v2",
        f"    [*] --> {spec.initial}",
    ]
    for transition in spec.transitions:
        for source in transition.sources:
            suffix = " [guarded]" if transition.guard is not None else ""
            lines.append(
                f"    {source} --> {transition.target}: "
                f"{transition.event}{suffix}"
            )
    lines.extend(["```", "", "| event | from | to | guard |", "|---|---|---|---|"])
    for transition in spec.transitions:
        guard = (
            f"`{transition.guard.__name__.lstrip('_')}`"
            if transition.guard is not None
            else "—"
        )
        lines.append(
            f"| `{transition.event}` | {', '.join(transition.sources)} "
            f"| {transition.target} | {guard} |"
        )
    return "\n".join(lines)


def render_all() -> str:
    """Every registered machine, in registration order."""
    return "\n\n".join(render_state_diagram(spec) for spec in all_specs())


if __name__ == "__main__":
    print(render_all())
