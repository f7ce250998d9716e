"""Message payloads exchanged by the Loki runtime components.

All runtime traffic — state notifications between state machines, daemon
control messages, watchdog pings, and experiment-management messages — is
carried by the simulated network as instances of the dataclasses below.
Keeping them as small immutable records makes the traffic easy to assert on
in tests and easy to count in the design-choice ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RegisterNode:
    """A node's state-machine transport registering with its daemon."""

    machine: str
    host: str
    is_restart: bool = False


@dataclass(frozen=True)
class StateNotification:
    """A state-change notification delivered to one recipient machine."""

    source: str
    state: str


@dataclass(frozen=True)
class RouteStateNotification:
    """A node asking its daemon to route a notification to several machines."""

    source: str
    targets: tuple[str, ...]
    state: str


@dataclass(frozen=True)
class DeliverStateNotification:
    """Daemon-to-daemon forwarding of a notification (one per recipient host)."""

    source: str
    targets: tuple[str, ...]
    state: str


@dataclass(frozen=True)
class CrashNotification:
    """A node crashed; ``self_reported`` distinguishes the signal-handler path."""

    machine: str
    host: str
    self_reported: bool = True


@dataclass(frozen=True)
class ExitNotification:
    """A node exited cleanly."""

    machine: str
    host: str


@dataclass(frozen=True)
class NodeLocation:
    """Daemon-to-daemon announcement of where a state machine is running."""

    machine: str
    host: str
    is_restart: bool = False


@dataclass(frozen=True)
class StartStateMachine:
    """Central daemon instructing a local daemon to start a state machine."""

    machine: str
    is_restart: bool = False


@dataclass(frozen=True)
class KillStateMachine:
    """Central daemon instructing a local daemon to kill one state machine."""

    machine: str


@dataclass(frozen=True)
class KillAllStateMachines:
    """Central daemon instructing a local daemon to kill every local machine."""


@dataclass(frozen=True)
class ExperimentEndNotification:
    """A local daemon telling the central daemon its local check found the end."""

    host: str


@dataclass(frozen=True)
class WatchdogPing:
    """Local daemon probing one of its state machines."""

    sequence: int


@dataclass(frozen=True)
class WatchdogAck:
    """A state machine answering a watchdog ping."""

    machine: str
    sequence: int


@dataclass(frozen=True)
class StateUpdateRequest:
    """A restarted node asking every machine for its current state."""

    requester: str


@dataclass(frozen=True)
class StateUpdateReply:
    """A machine answering a :class:`StateUpdateRequest` with its current state."""

    machine: str
    state: str


@dataclass(frozen=True)
class DaemonHello:
    """Local daemons introducing themselves to each other and to the central daemon."""

    host: str


@dataclass(frozen=True)
class ApplicationMessage:
    """An application-level message between two nodes of the system under study."""

    source: str
    payload: object = None
    tag: str = ""
    metadata: dict = field(default_factory=dict)
