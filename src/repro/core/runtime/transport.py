"""State-machine transports (Section 3.5.4).

The state machine asks its transport to deliver state notifications to the
machines named in the new state's ``notify`` clause.  Two families of
transports exist, matching the communication modes of the design space:

* :class:`DaemonRoutedTransport` — the notification is handed to the node's
  daemon, which routes it towards the recipients (the enhanced runtime);
* :class:`DirectTransport` — the node sends one message straight to every
  recipient node (the original runtime and the "direct" design variants).

:class:`LoopbackTransport` delivers synchronously inside one process and is
used by unit tests and by single-process demonstrations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.core.runtime import messages as msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.statemachine import StateMachine


class StateMachineTransport(ABC):
    """Interface between a state machine and the notification fabric."""

    @abstractmethod
    def send_state_notification(self, source: str, targets: tuple[str, ...], state: str) -> None:
        """Deliver ``source``'s new ``state`` to every machine in ``targets``."""

    @abstractmethod
    def notify_crash(self, machine: str) -> None:
        """Announce that ``machine`` crashed (self-reported path)."""

    @abstractmethod
    def notify_exit(self, machine: str) -> None:
        """Announce that ``machine`` exited cleanly."""


class LoopbackTransport(StateMachineTransport):
    """Synchronous in-process delivery between registered state machines.

    Useful in unit tests and in the measure-layer examples where the full
    daemon fabric would only add noise.  Registration and delivery happen
    immediately, with no modelled delay.
    """

    def __init__(self) -> None:
        self._machines: dict[str, "StateMachine"] = {}
        self.crashes: list[str] = []
        self.exits: list[str] = []

    def register(self, machine: "StateMachine") -> None:
        """Make a state machine reachable through this transport."""
        self._machines[machine.name] = machine
        machine.attach_transport(self)

    def send_state_notification(self, source: str, targets: tuple[str, ...], state: str) -> None:
        for target in targets:
            recipient = self._machines.get(target)
            if recipient is not None:
                recipient.receive_remote_state(source, state)

    def notify_crash(self, machine: str) -> None:
        self.crashes.append(machine)

    def notify_exit(self, machine: str) -> None:
        self.exits.append(machine)


class NodeTransportBase(StateMachineTransport):
    """Common plumbing for transports attached to a :class:`LokiNodeProcess`.

    ``send`` is the node's own send; crashes and exits are always reported
    to the node's ``daemon`` (the transports differ only in how state
    notifications travel).
    """

    def __init__(self, send: Callable[[str, object], None], host: str, daemon: str) -> None:
        self._send = send
        self._host = host
        self._daemon = daemon
        self.notifications_sent = 0

    def notify_crash(self, machine: str) -> None:
        self._send(
            self._daemon,
            msg.CrashNotification(machine=machine, host=self._host, self_reported=True),
        )

    def notify_exit(self, machine: str) -> None:
        self._send(self._daemon, msg.ExitNotification(machine=machine, host=self._host))


class DaemonRoutedTransport(NodeTransportBase):
    """Notifications are handed to the node's daemon for routing."""

    def send_state_notification(self, source: str, targets: tuple[str, ...], state: str) -> None:
        if not targets:
            return
        self.notifications_sent += 1
        self._send(
            self._daemon,
            msg.RouteStateNotification(source=source, targets=tuple(targets), state=state),
        )


class DirectTransport(NodeTransportBase):
    """Notifications are sent directly to every recipient state machine.

    The daemon is still informed of crashes and exits so that experiment
    completion and crash bookkeeping keep working, matching the original
    runtime where the daemon-equivalent bookkeeping lived in the GUI.
    """

    def send_state_notification(self, source: str, targets: tuple[str, ...], state: str) -> None:
        for target in targets:
            self.notifications_sent += 1
            self._send(target, msg.StateNotification(source=source, state=state))
