"""Unit tests for :mod:`repro.lifecycle` — the declared state machines.

Covers spec validation, fire/guard semantics, the ``on_error``
resume/redirect recovery protocol, pickling (registered specs travel by
reference inside checkpoints), the shared :class:`TransitionValidator`,
reachability of every declared machine, and the docs-sync lock that keeps
the ``docs/api.md`` state-diagram appendix generated from the live specs.
"""

from __future__ import annotations

import pathlib
import pickle

import pytest

from repro.errors import ConfigError, IllegalTransition
from repro.gpu.warp import WarpState
from repro.lifecycle import (
    BATCH_PIPELINE,
    ENGINE_LOOP,
    WARP_LIFECYCLE,
    MachineSpec,
    StateMachine,
    Transition,
    TransitionValidator,
    all_specs,
    get_spec,
    render_all,
    render_state_diagram,
)


def _guard_allows(owner) -> bool:
    """Module-level guard (lambdas would break machine pickling)."""
    return bool(getattr(owner, "allow", True))


def _toy_spec() -> MachineSpec:
    return MachineSpec(
        "toy",
        states=("off", "on", "broken"),
        initial="off",
        transitions=(
            Transition("flip", ("off",), "on"),
            Transition("unflip", ("on",), "off"),
            Transition("overload", ("on",), "broken", guard=_guard_allows),
        ),
        register=False,
    )


class _Owner:
    allow = True


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestMachineSpec:
    def test_duplicate_states_rejected(self):
        with pytest.raises(ConfigError, match="duplicate states"):
            MachineSpec("bad", ("a", "a"), "a", (), register=False)

    def test_undeclared_initial_rejected(self):
        with pytest.raises(ConfigError, match="initial state"):
            MachineSpec("bad", ("a",), "b", (), register=False)

    def test_undeclared_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            MachineSpec(
                "bad", ("a",), "a",
                (Transition("go", ("a",), "zzz"),),
                register=False,
            )

    def test_undeclared_source_rejected(self):
        with pytest.raises(ConfigError, match="source"):
            MachineSpec(
                "bad", ("a",), "a",
                (Transition("go", ("zzz",), "a"),),
                register=False,
            )

    def test_ambiguous_transition_rejected(self):
        with pytest.raises(ConfigError, match="duplicate transition"):
            MachineSpec(
                "bad", ("a", "b"), "a",
                (
                    Transition("go", ("a",), "b"),
                    Transition("go", ("a",), "a"),
                ),
                register=False,
            )

    def test_registered_names_are_unique(self):
        with pytest.raises(ConfigError, match="duplicate machine spec name"):
            MachineSpec("batch-pipeline", ("a",), "a", ())

    def test_registry_lookup(self):
        assert get_spec("batch-pipeline") is BATCH_PIPELINE
        assert get_spec("engine-loop") is ENGINE_LOOP
        assert get_spec("warp") is WARP_LIFECYCLE
        with pytest.raises(ConfigError, match="unknown lifecycle machine"):
            get_spec("no-such-machine")
        names = [spec.name for spec in all_specs()]
        assert set(names) >= {"batch-pipeline", "engine-loop", "warp"}

    def test_events_in_declaration_order(self):
        assert _toy_spec().events == ("flip", "unflip", "overload")

    @pytest.mark.parametrize("spec", [BATCH_PIPELINE, ENGINE_LOOP, WARP_LIFECYCLE])
    def test_every_state_reachable(self, spec):
        """No orphan states: every declared state is reachable from the
        initial state through declared transitions."""
        reached = {spec.initial}
        frontier = [spec.initial]
        while frontier:
            state = frontier.pop()
            for transition in spec.transitions:
                if state in transition.sources and transition.target not in reached:
                    reached.add(transition.target)
                    frontier.append(transition.target)
        assert reached == set(spec.states), (
            f"{spec.name}: unreachable states {set(spec.states) - reached}"
        )

    def test_warp_spec_matches_warp_state_enum(self):
        """The warp store derives its state codes from the spec's state
        order — the enum and the declaration must agree exactly."""
        assert tuple(s.value for s in WarpState) == WARP_LIFECYCLE.states


# ----------------------------------------------------------------------
# StateMachine semantics
# ----------------------------------------------------------------------
class TestStateMachine:
    def test_fire_moves_and_counts(self):
        machine = StateMachine(_toy_spec())
        assert machine.state == "off"
        assert machine.fire("flip") == "on"
        assert machine.fire("unflip") == "off"
        assert machine.fire("flip") == "on"
        assert machine.counts == {"flip": 2, "unflip": 1}

    def test_observer_sees_every_transition(self):
        machine = StateMachine(_toy_spec())
        seen = []
        machine.observer = lambda *args: seen.append(args)
        machine.fire("flip")
        machine.fire("unflip")
        assert seen == [
            ("toy", "flip", "off", "on"),
            ("toy", "unflip", "on", "off"),
        ]

    def test_undeclared_event_raises_with_snapshot(self):
        machine = StateMachine(_toy_spec())
        with pytest.raises(IllegalTransition, match="no transition") as excinfo:
            machine.fire("overload", batch=7)
        error = excinfo.value
        assert error.machine_snapshot["machine"] == "toy"
        assert error.machine_snapshot["state"] == "off"
        assert "batch=7" in str(error)
        assert machine.state == "off"  # failed fire leaves state untouched

    def test_guard_refusal_raises(self):
        owner = _Owner()
        owner.allow = False
        machine = StateMachine(_toy_spec(), owner=owner)
        machine.fire("flip")
        with pytest.raises(IllegalTransition, match="guard refused"):
            machine.fire("overload")
        owner.allow = True
        assert machine.fire("overload") == "broken"

    def test_on_error_resume_swallows_event(self):
        machine = StateMachine(_toy_spec())
        calls = []

        def resume(m, error):
            calls.append(error)
            return True

        machine.on_error.append(resume)
        assert machine.fire("overload") == "off"  # held, not raised
        assert machine.state == "off"
        assert machine.counts == {}  # a swallowed event is not a transition
        assert isinstance(calls[0], IllegalTransition)

    def test_on_error_redirect_forces_state(self):
        machine = StateMachine(_toy_spec())
        machine.on_error.append(lambda m, error: "broken")
        seen = []
        machine.observer = lambda *args: seen.append(args)
        assert machine.fire("overload") == "broken"
        assert machine.state == "broken"
        assert machine.counts == {"overload": 1}
        assert seen == [("toy", "overload", "off", "broken")]

    def test_on_error_redirect_validates_state(self):
        machine = StateMachine(_toy_spec())
        machine.on_error.append(lambda m, error: "not-a-state")
        with pytest.raises(ConfigError, match="undeclared state"):
            machine.fire("overload")

    def test_declining_handlers_reraise(self):
        machine = StateMachine(_toy_spec())
        machine.on_error.append(lambda m, error: None)  # declines
        with pytest.raises(IllegalTransition):
            machine.fire("overload")

    def test_snapshot_shape(self):
        machine = StateMachine(_toy_spec())
        machine.fire("flip")
        snap = machine.snapshot()
        assert snap == {
            "machine": "toy",
            "state": "on",
            "transitions": 1,
            "counts": {"flip": 1},
        }

    def test_detached_copy(self):
        machine = StateMachine(_toy_spec())
        machine.fire("flip")
        clone = machine.detached_copy(state="off")
        assert clone.state == "off"
        assert clone.counts == machine.counts
        assert clone.counts is not machine.counts
        assert machine.state == "on"  # original untouched
        with pytest.raises(ConfigError, match="undeclared state"):
            machine.detached_copy(state="nope")


# ----------------------------------------------------------------------
# Pickling (the checkpoint contract)
# ----------------------------------------------------------------------
class TestPickling:
    def test_registered_spec_pickles_by_reference(self):
        for spec in (BATCH_PIPELINE, ENGINE_LOOP, WARP_LIFECYCLE):
            assert pickle.loads(pickle.dumps(spec)) is spec

    def test_unregistered_spec_round_trips_by_value(self):
        spec = _toy_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone is not spec
        assert clone.name == spec.name
        assert clone.states == spec.states
        assert clone.transitions == spec.transitions

    def test_machine_round_trips_state_and_counts(self):
        machine = StateMachine(BATCH_PIPELINE)
        machine.fire("fault")
        machine.fire("begin")
        clone = pickle.loads(pickle.dumps(machine))
        assert clone.spec is BATCH_PIPELINE  # by reference
        assert clone.state == "preprocess"
        assert clone.counts == {"fault": 1, "begin": 1}


# ----------------------------------------------------------------------
# TransitionValidator
# ----------------------------------------------------------------------
class TestTransitionValidator:
    def test_check_returns_declared_target(self):
        validator = TransitionValidator(WARP_LIFECYCLE)
        assert validator.check("issue", "ready") == "running"
        assert validator.check("stall", "running") == "stalled"
        assert validator.check("wake", "stalled") == "ready"
        assert validator.counts == {"issue": 1, "stall": 1, "wake": 1}

    def test_illegal_move_carries_witness(self):
        validator = TransitionValidator(WARP_LIFECYCLE)
        with pytest.raises(IllegalTransition, match="wake") as excinfo:
            validator.check("wake", "running", warp=13)
        assert "warp=13" in str(excinfo.value)
        assert excinfo.value.machine_snapshot["state"] == "running"

    def test_observer_forwarding(self):
        seen = []
        validator = TransitionValidator(
            WARP_LIFECYCLE, observer=lambda *args: seen.append(args)
        )
        validator.check("suspend", "ready")
        assert seen == [("warp", "suspend", "ready", "suspended")]


# ----------------------------------------------------------------------
# Documentation rendering + sync lock
# ----------------------------------------------------------------------
class TestDocs:
    def test_render_contains_mermaid_and_transitions(self):
        text = render_state_diagram(BATCH_PIPELINE)
        assert "```mermaid" in text
        assert "stateDiagram-v2" in text
        assert "[*] --> idle" in text
        for transition in BATCH_PIPELINE.transitions:
            assert transition.event in text
        assert "[guarded]" in text  # `complete` carries a guard

    def test_render_all_covers_every_registered_machine(self):
        text = render_all()
        for spec in all_specs():
            assert f"#### `{spec.name}`" in text

    def test_api_docs_in_sync_with_specs(self):
        """The docs/api.md appendix is generated from the live specs; a
        spec change must regenerate it (see the markers in the file)."""
        api = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
        text = api.read_text()
        begin = "<!-- lifecycle-diagrams:begin (generated by `python -m repro.lifecycle`; do not edit) -->"
        end = "<!-- lifecycle-diagrams:end -->"
        assert begin in text and end in text, (
            "docs/api.md lost its lifecycle-diagram markers"
        )
        embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == render_all().strip(), (
            "docs/api.md lifecycle appendix is stale; regenerate with "
            "`PYTHONPATH=src python -m repro.lifecycle` and paste between "
            "the markers"
        )
