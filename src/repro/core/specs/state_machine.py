"""State-machine specifications (Section 3.5.3).

A state-machine specification describes the execution of one component of
the distributed system at the level of abstraction needed for fault
injection: the list of global states, the list of local events of this
machine, and — per state — the list of remote state machines to notify on
entry plus the event-to-next-state transitions.  The paper reads it from a
text file; here every study builds it as Python objects
(:func:`build_specification`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import SpecificationError

#: State names with special meaning to the runtime (Section 3.5.7).
RESERVED_STATES = frozenset({"BEGIN", "EXIT", "CRASH", "RESTART"})

#: Event names with special meaning to the runtime (Section 3.5.7).
RESERVED_EVENTS = frozenset({"CRASH", "RESTART", "default"})

#: The state every state machine is in before its first probe notification.
INITIAL_STATE = "BEGIN"

#: Wildcard event: matches any event with no explicit transition in a state.
DEFAULT_EVENT = "default"


@dataclass(frozen=True)
class StateSpecification:
    """One state of a state-machine specification.

    Attributes
    ----------
    name:
        The state's name.
    notify:
        Nicknames of the remote state machines to notify when this machine
        enters the state (the ``notify`` clause).
    transitions:
        Mapping from local event name to the next state.
    """

    name: str
    notify: tuple[str, ...] = ()
    transitions: Mapping[str, str] = field(default_factory=dict)

    def next_state(self, event: str) -> str | None:
        """The state reached when ``event`` occurs here, or ``None``.

        Falls back to the reserved ``default`` wildcard transition when the
        event has no explicit entry.
        """
        if event in self.transitions:
            return self.transitions[event]
        return self.transitions.get(DEFAULT_EVENT)


@dataclass(frozen=True)
class StateMachineSpecification:
    """A complete state-machine specification for one node."""

    name: str
    global_states: tuple[str, ...]
    events: tuple[str, ...]
    states: Mapping[str, StateSpecification]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check internal consistency; raise :class:`SpecificationError` if broken."""
        if not self.name:
            raise SpecificationError("state machine nickname cannot be empty")
        if len(set(self.global_states)) != len(self.global_states):
            raise SpecificationError(f"{self.name}: duplicate entries in global_state_list")
        if len(set(self.events)) != len(self.events):
            raise SpecificationError(f"{self.name}: duplicate entries in event_list")
        known_states = set(self.global_states) | RESERVED_STATES
        known_events = set(self.events) | RESERVED_EVENTS
        for state_name, state in self.states.items():
            if state_name != state.name:
                raise SpecificationError(
                    f"{self.name}: state mapping key {state_name!r} != state name {state.name!r}"
                )
            if state_name not in known_states:
                raise SpecificationError(
                    f"{self.name}: state {state_name!r} is not in the global_state_list"
                )
            for event, target in state.transitions.items():
                if event not in known_events:
                    raise SpecificationError(
                        f"{self.name}: transition on unknown event {event!r} in state {state_name!r}"
                    )
                if target not in known_states:
                    raise SpecificationError(
                        f"{self.name}: transition to unknown state {target!r} in state {state_name!r}"
                    )

    def state(self, name: str) -> StateSpecification | None:
        """Look up one state's specification (``None`` if not described)."""
        return self.states.get(name)

    def notify_list(self, state: str) -> tuple[str, ...]:
        """Remote machines to notify when entering ``state``."""
        spec = self.states.get(state)
        return spec.notify if spec is not None else ()

    def transition(self, state: str, event: str) -> str | None:
        """The next state from ``state`` on ``event``, or ``None`` if undefined."""
        spec = self.states.get(state)
        if spec is None:
            return None
        return spec.next_state(event)

    def reachable_states(self, initial: str) -> frozenset[str]:
        """All states reachable from ``initial`` following declared transitions."""
        seen: set[str] = set()
        frontier = [initial]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            spec = self.states.get(current)
            if spec is None:
                continue
            frontier.extend(spec.transitions.values())
        return frozenset(seen)


def build_specification(
    name: str,
    global_states: Iterable[str],
    events: Iterable[str],
    states: Iterable[StateSpecification],
) -> StateMachineSpecification:
    """Convenience constructor from iterables (used by the example apps).

    Raises :class:`SpecificationError` if two states share a name.
    """
    by_name: dict[str, StateSpecification] = {}
    for state in states:
        if state.name in by_name:
            raise SpecificationError(f"{name}: state {state.name!r} defined twice")
        by_name[state.name] = state
    return StateMachineSpecification(
        name=name,
        global_states=tuple(global_states),
        events=tuple(events),
        states=by_name,
    )
