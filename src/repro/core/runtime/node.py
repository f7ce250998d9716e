"""The Loki node: application plus attached runtime (Section 2.2.2).

A :class:`LokiNodeProcess` is one component of the distributed system under
study together with its Loki runtime: the state machine, state-machine
transport, fault parser, recorder, and probe.  The process name equals the
state machine's nickname, so application messages and Loki notifications
can both be addressed by nickname.
"""

from __future__ import annotations

from typing import Any

from repro.core.faults import FaultParser
from repro.core.recorder import Recorder
from repro.core.runtime import messages as msg
from repro.core.runtime.application import ApplicationProbe, NodeContext
from repro.core.runtime.context import ExperimentContext, NodeDefinition
from repro.core.runtime.designs import CommunicationMode
from repro.core.runtime.transport import DaemonRoutedTransport, DirectTransport
from repro.core.statemachine import StateMachine
from repro.sim.network import NetworkMessage
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStream


class LokiNodeProcess(SimProcess):
    """One node of the system under study with the Loki runtime attached."""

    def __init__(
        self,
        definition: NodeDefinition,
        context: ExperimentContext,
        is_restart: bool = False,
    ) -> None:
        super().__init__(definition.nickname)
        self.definition = definition
        self.context = context
        self.is_restart = is_restart
        self.application = definition.application_factory()
        # The application's stream is derived from the experiment seed by
        # the environment's RandomStreams factory (named per node and per
        # start/restart generation), never from ambient random state.
        self.application_rng: RandomStream = context.environment.streams.stream(
            f"app:{definition.nickname}:{'restart' if is_restart else 'start'}"
        )
        self.state_machine: StateMachine | None = None
        self.probe: ApplicationProbe | None = None
        self.fault_parser: FaultParser | None = None
        self.recorder: Recorder | None = None
        self.transport = None
        self.node_context: NodeContext | None = None
        self._killed_by_daemon = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Assemble the runtime components and run the application's main."""
        timeline = self.context.timeline_store.get_or_create(
            machine=self.name,
            all_machines=self.context.machine_names,
            specification=self.definition.specification,
            faults=self.definition.faults,
        )
        self.recorder = Recorder(timeline, clock=self.local_clock, host=lambda: self.host.name)
        self.fault_parser = FaultParser(self.definition.faults, recorder=self.recorder)
        self.state_machine = StateMachine(
            spec=self.definition.specification,
            recorder=self.recorder,
            fault_parser=self.fault_parser,
            clock=self.local_clock,
        )
        self.transport = self._build_transport()
        self.state_machine.attach_transport(self.transport)
        self.node_context = NodeContext(self)
        self.probe = ApplicationProbe(self.application, self.node_context)
        self.probe.attach(self.state_machine)
        self.fault_parser.attach_probe(self.probe)
        self.fault_parser.attach_network_injector(self._inject_network_fault)

        daemon = self.context.daemon_name(self.host.name, self.name)
        self.send(daemon, msg.RegisterNode(machine=self.name, host=self.host.name,
                                           is_restart=self.is_restart))
        self.context.stats["connection_setups"] += 1

        if self.is_restart:
            self.recorder.record_note(
                f"RESTART on host {self.host.name} at local time {self.local_clock():.9f}"
            )
            # Obtain state updates from all other machines (Section 3.6.3).
            self.send(daemon, msg.StateUpdateRequest(requester=self.name))
            self.application.on_restart(self.node_context)
        else:
            self.application.on_start(self.node_context)

    def _build_transport(self):
        daemon = self.context.daemon_name(self.host.name, self.name)
        if self.context.design.communication is CommunicationMode.VIA_DAEMON:
            return DaemonRoutedTransport(send=self.send, host=self.host.name, daemon=daemon)
        return DirectTransport(send=self.send, host=self.host.name, daemon=daemon)

    def _inject_network_fault(self, fault) -> float:
        """Apply a topology-mutating fault (the network analogue of the probe).

        The injection time is read before the mutation so it is stamped
        inside the global state that triggered the fault, exactly like
        :class:`~repro.core.runtime.application.ApplicationProbe`.
        """
        injection_time = self.local_clock()
        self.context.environment.network.apply(fault.network, label=fault.name)
        self.context.stats["network_faults_injected"] += 1
        return injection_time

    def on_crash(self, reason: str) -> None:
        """Signal-handler analogue: record the crash before the process dies."""
        if self.state_machine is not None and not self.state_machine.crashed:
            self.state_machine.notify_on_crash()

    def on_exit(self) -> None:
        """Clean-exit hook: inform the daemon so the watchdog does not fire."""
        if self.state_machine is not None and not self.state_machine.exited:
            self.state_machine.notify_on_exit()

    def kill(self) -> None:
        """Forcible termination by the central daemon (experiment abort)."""
        if not self.alive:
            return
        self._killed_by_daemon = True
        if self.node_context is not None:
            self.application.on_kill(self.node_context)
        if self.alive:
            self.crash(reason="killed by daemon")

    # -- messaging ----------------------------------------------------------------

    def send_application_message(self, destination: str, payload: Any, tag: str = "") -> None:
        """Send an application-level message to another node."""
        self.send(destination, msg.ApplicationMessage(source=self.name, payload=payload, tag=tag))
        self.context.stats["application_messages"] += 1

    def receive(self, message: NetworkMessage) -> None:
        """Dispatch a delivered message to the runtime or the application."""
        payload = message.payload
        if isinstance(payload, msg.StateNotification):
            self.state_machine.receive_remote_state(payload.source, payload.state)
        elif isinstance(payload, msg.StateUpdateRequest):
            if payload.requester != self.name:
                self.send(
                    payload.requester,
                    msg.StateUpdateReply(machine=self.name,
                                         state=self.state_machine.current_state),
                )
        elif isinstance(payload, msg.StateUpdateReply):
            self.state_machine.receive_remote_state(payload.machine, payload.state)
        elif isinstance(payload, msg.WatchdogPing):
            daemon = self.context.daemon_name(self.host.name, self.name)
            self.send(daemon, msg.WatchdogAck(machine=self.name, sequence=payload.sequence))
        elif isinstance(payload, msg.ApplicationMessage):
            self.application.on_message(self.node_context, payload.source, payload.payload)
        else:
            self.context.stats["node_unknown_messages"] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = self.state_machine.current_state if self.state_machine else "?"
        return f"LokiNodeProcess({self.name!r}, state={state!r}, alive={self.alive})"
