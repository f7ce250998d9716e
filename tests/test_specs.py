"""Tests for the specification objects and the fault-specification text format."""

import pytest

from repro.apps.election import election_state_machine_spec
from repro.core.expression import StateAtom
from repro.core.specs import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
    StateMachineSpecification,
    format_fault_specification,
    parse_fault_specification,
)
from repro.core.specs.state_machine import StateSpecification, build_specification
from repro.errors import SpecificationError

# The Section 5.3 specification of the state machine "black": the global
# state list, the event list, and per state its notify list and its
# event -> next-state transitions, in the paper's order.
BLACK_GLOBAL_STATES = ("BEGIN", "INIT", "RESTART_SM", "ELECT", "FOLLOW", "LEAD", "CRASH", "EXIT")
BLACK_EVENTS = (
    "START",
    "INIT_DONE",
    "RESTART",
    "RESTART_DONE",
    "LEADER",
    "FOLLOWER",
    "LEADER_CRASH",
    "CRASH",
    "ERROR",
)
BLACK_STATES = {
    "INIT": (("green", "yellow"), {"INIT_DONE": "ELECT", "ERROR": "EXIT"}),
    "RESTART_SM": (("green", "yellow"), {"RESTART_DONE": "FOLLOW", "ERROR": "EXIT"}),
    "ELECT": ((), {"FOLLOWER": "FOLLOW", "LEADER": "LEAD", "CRASH": "CRASH", "ERROR": "EXIT"}),
    "LEAD": ((), {"CRASH": "CRASH", "ERROR": "EXIT"}),
    "FOLLOW": ((), {"LEADER_CRASH": "ELECT", "CRASH": "CRASH", "ERROR": "EXIT"}),
    "CRASH": (("green", "yellow"), {}),
    "EXIT": ((), {}),
}


def chapter5_black() -> StateMachineSpecification:
    """The election app's specification of ``black`` (peers green, yellow)."""
    return election_state_machine_spec("black", ("green", "yellow"))


class TestStateMachineSpecification:
    def test_election_spec_is_chapter5_black(self):
        paper = StateMachineSpecification(
            name="black",
            global_states=BLACK_GLOBAL_STATES,
            events=BLACK_EVENTS,
            states={
                state: StateSpecification(state, notify=notify, transitions=transitions)
                for state, (notify, transitions) in BLACK_STATES.items()
            },
        )
        spec = chapter5_black()
        assert spec == paper
        assert tuple(spec.states) == tuple(BLACK_STATES)
        assert spec.notify_list("INIT") == ("green", "yellow")
        assert spec.notify_list("ELECT") == ()
        assert spec.transition("ELECT", "LEADER") == "LEAD"
        assert spec.transition("FOLLOW", "LEADER_CRASH") == "ELECT"
        assert spec.transition("LEAD", "LEADER") is None

    def test_reachability(self):
        reachable = chapter5_black().reachable_states("INIT")
        assert "LEAD" in reachable
        assert "RESTART_SM" not in reachable

    def test_default_event_wildcard(self):
        spec = build_specification(
            "sm",
            ["A", "B"],
            ["go"],
            [StateSpecification("A", transitions={"default": "B"})],
        )
        assert spec.transition("A", "anything") == "B"

    def test_unknown_state_in_transition_rejected(self):
        with pytest.raises(SpecificationError):
            build_specification(
                "sm",
                ["A"],
                ["go"],
                [StateSpecification("A", transitions={"go": "MISSING"})],
            )

    def test_unknown_event_rejected(self):
        with pytest.raises(SpecificationError):
            build_specification(
                "sm",
                ["A", "B"],
                ["go"],
                [StateSpecification("A", transitions={"jump": "B"})],
            )

    def test_duplicate_states_rejected(self):
        with pytest.raises(SpecificationError):
            build_specification("sm", ["A", "A"], [], [])

    def test_state_defined_twice_rejected(self):
        # A second definition of a state must not silently replace the first.
        with pytest.raises(SpecificationError, match="'A' defined twice"):
            build_specification(
                "sm",
                ["A", "B"],
                ["go"],
                [
                    StateSpecification("A", transitions={"go": "B"}),
                    StateSpecification("A", notify=("peer",)),
                ],
            )


class TestFaultSpecification:
    def test_parse_paper_example(self):
        spec = parse_fault_specification("F1 ((SM1:ELECT) & (SM2:FOLLOW)) always\n")
        assert spec.names() == ("F1",)
        fault = spec.get("F1")
        assert fault.trigger is FaultTrigger.ALWAYS
        assert fault.evaluate({"SM1": "ELECT", "SM2": "FOLLOW"})

    def test_parse_chapter5_specification(self):
        text = (
            "bfault1 (black:LEAD) always\n"
            "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n"
        )
        spec = parse_fault_specification(text)
        assert spec.names() == ("bfault1", "gfault2")
        assert spec.get("gfault2").trigger is FaultTrigger.ONCE
        assert spec.machines() == frozenset({"black", "green"})

    def test_roundtrip(self):
        text = "bfault1 (black:LEAD) always\ngfault3 ((green:FOLLOW) | (green:ELECT)) once\n"
        spec = parse_fault_specification(text)
        assert parse_fault_specification(format_fault_specification(spec)) == spec

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_fault_specification("# comment\n\nF1 (A:B) once\n")
        assert len(spec) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(SpecificationError):
            parse_fault_specification("F1 (A:B)\n")

    def test_bad_trigger_rejected(self):
        with pytest.raises(SpecificationError):
            parse_fault_specification("F1 (A:B) sometimes\n")

    def test_duplicate_fault_names_rejected(self):
        with pytest.raises(SpecificationError):
            parse_fault_specification("F1 (A:B) once\nF1 (A:C) once\n")

    def test_should_fire_edge_semantics(self):
        once = FaultDefinition("f", StateAtom("A", "X"), FaultTrigger.ONCE)
        always = FaultDefinition("g", StateAtom("A", "X"), FaultTrigger.ALWAYS)
        assert once.should_fire(previous=False, current=True, already_fired=False)
        assert not once.should_fire(previous=False, current=True, already_fired=True)
        assert not once.should_fire(previous=True, current=True, already_fired=False)
        assert always.should_fire(previous=False, current=True, already_fired=True)
        assert not always.should_fire(previous=True, current=True, already_fired=True)
        assert not always.should_fire(previous=False, current=False, already_fired=False)
