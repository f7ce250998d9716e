"""Application-side interface of a Loki node.

The paper's probe is application code: the user instruments the system
under study (renames ``main`` to ``appMain``, inserts ``notifyEvent``
calls, and implements ``injectFault``).  In this reproduction an
application is an object implementing :class:`LokiApplication`; the
:class:`NodeContext` it receives plays the role of the instrumented
process: it exposes ``notify_event``, message passing to the other
components, timers, the local clock, and crash/exit.

:class:`ApplicationProbe` adapts a :class:`LokiApplication` to the
:class:`~repro.core.probe.Probe` interface expected by the fault parser.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.probe import Probe
from repro.sim.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.runtime.node import LokiNodeProcess


class LokiApplication:
    """Base class for instrumented applications (the system under study)."""

    def on_start(self, ctx: "NodeContext") -> None:
        """Called when the node starts for the first time (``appMain``)."""

    def on_restart(self, ctx: "NodeContext") -> None:
        """Called when the node is restarted after a crash.

        The default simply runs :meth:`on_start` again; applications that
        distinguish restart (as the leader-election example does) override
        this.
        """
        self.on_start(ctx)

    def on_message(self, ctx: "NodeContext", source: str, payload: Any) -> None:
        """Called for every application-level message received by the node."""

    def on_fault(self, ctx: "NodeContext", fault_name: str) -> None:
        """Perform the actual injection of ``fault_name``.

        The default injection crashes the process, which is the behaviour
        assumed for the Chapter 5 coverage evaluation; applications with
        richer fault models override this.
        """
        ctx.crash(reason=f"fault {fault_name}")

    def on_kill(self, ctx: "NodeContext") -> None:
        """Called just before the central daemon forcibly kills the node."""


class NodeContext:
    """Facilities a :class:`LokiApplication` can use from inside its node."""

    def __init__(self, node: "LokiNodeProcess") -> None:
        self._node = node

    # -- identity --------------------------------------------------------------

    @property
    def nickname(self) -> str:
        """The node's state-machine nickname (also its process name)."""
        return self._node.name

    @property
    def host_name(self) -> str:
        """The host the node is currently running on."""
        return self._node.host.name

    @property
    def is_restart(self) -> bool:
        """Whether this execution is a restart of a previously crashed node."""
        return self._node.is_restart

    @property
    def arguments(self) -> tuple[str, ...]:
        """The application arguments of the node definition (fixed per study)."""
        return self._node.definition.arguments

    @property
    def random(self) -> RandomStream:
        """A per-node deterministic random stream for application use.

        The stream is derived from the experiment seed by the node's
        :class:`~repro.sim.rng.RandomStreams` factory — never ambient
        :mod:`random` state — so application draws are reproducible.
        """
        return self._node.application_rng

    @property
    def alive(self) -> bool:
        """Whether the node process is still running."""
        return self._node.alive

    @property
    def current_state(self) -> str:
        """The node's current local state as tracked by the state machine."""
        return self._node.state_machine.current_state

    @property
    def partial_view(self) -> dict[str, str]:
        """The node's partial view of the global state (nickname to state)."""
        return dict(self._node.state_machine.partial_view)

    # -- Loki instrumentation ----------------------------------------------------

    def notify_event(self, name: str) -> None:
        """Send a local event notification to the state machine."""
        self._node.probe.notify_event(name)

    def note(self, text: str) -> None:
        """Attach a free-form note to the node's local timeline.

        Notes ride along with the timeline through both store codecs, so
        protocol-level facts that are richer than a state name (terms,
        commit indices, read versions) survive into offline analysis; the
        protocol-invariant harness in ``tests/protocol`` replays them.
        """
        self._node.recorder.record_note(text)

    def local_time(self) -> float:
        """Read the local hardware clock."""
        return self._node.local_clock()

    # -- interaction with the rest of the system ---------------------------------

    def send(self, destination: str, payload: Any, tag: str = "") -> None:
        """Send an application-level message to another node by nickname."""
        self._node.send_application_message(destination, payload, tag)

    def peers(self) -> tuple[str, ...]:
        """Nicknames of every state machine defined for the study (incl. self)."""
        return tuple(self._node.context.node_definitions)

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule an application callback ``delay`` seconds from now."""
        self._node.set_timer(delay, callback, *args)

    # -- lifecycle ----------------------------------------------------------------

    def exit(self) -> None:
        """Terminate the node cleanly."""
        self._node.exit()

    def crash(self, reason: str = "application crash") -> None:
        """Crash the node (the default effect of an injected fault)."""
        self._node.crash(reason=reason)


class ApplicationProbe(Probe):
    """Adapts a :class:`LokiApplication` to the runtime's probe interface.

    The injection time reported to the fault parser is read *before* the
    application's fault handler runs, so that an injection whose effect is
    an immediate crash is still stamped inside the state that triggered it.
    """

    def __init__(self, application: LokiApplication, ctx: NodeContext) -> None:
        super().__init__()
        self._application = application
        self._ctx = ctx
        self.injected: list[tuple[str, float]] = []

    def inject_fault(self, fault_name: str) -> float:
        injection_time = self._ctx.local_time()
        self.injected.append((fault_name, injection_time))
        self._application.on_fault(self._ctx, fault_name)
        return injection_time
