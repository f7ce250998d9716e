"""The central and local daemons of the enhanced runtime (Sections 3.5.1-3.5.2).

* The **local daemon** (one per host in the partially distributed design,
  one global router in the centralized design, one per node in the fully
  distributed design) services the state machines attached to it: it routes
  state notifications, watches its machines with a watchdog, writes crash
  events for machines that die silently, announces node locations to the
  other daemons, and performs the local experiment-completion check.

* The **central daemon** manages each experiment: it starts the state
  machines that have a start host, enforces the experiment timeout,
  restarts crashed nodes according to the restart policy (possibly on a
  different host), and declares the experiment complete when no state
  machines are executing anywhere.
"""

from __future__ import annotations

from repro.core.runtime import messages as msg
from repro.core.runtime.context import ExperimentContext
from repro.core.runtime.designs import CENTRAL_DAEMON_NAME
from repro.sim.network import NetworkMessage
from repro.sim.process import SimProcess

#: Reserved state/event used when a daemon records a crash it detected itself.
_CRASH = "CRASH"


class LocalDaemonProcess(SimProcess):
    """Routing, watchdog, and bookkeeping daemon serving a set of nodes."""

    def __init__(
        self,
        context: ExperimentContext,
        host_name: str,
        served_machine: str | None = None,
    ) -> None:
        super().__init__(context.daemon_name(host_name, served_machine))
        self.context = context
        self.served_machine = served_machine
        self._local: dict[str, dict] = {}
        self._locations: dict[str, str] = {}
        self._dead: set[str] = set()
        self._watchdog_sequence = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        for peer in self.peer_daemons():
            self.send(peer, msg.DaemonHello(host=self.host.name))
        self.send(CENTRAL_DAEMON_NAME, msg.DaemonHello(host=self.host.name))
        if self.context.watchdog.enabled:
            self.set_timer(self.context.watchdog.interval, self._watchdog_tick)

    def peer_daemons(self) -> tuple[str, ...]:
        """Names of every other routing daemon in the experiment."""
        return tuple(name for name in self.context.daemon_names() if name != self.name)

    # -- message handling --------------------------------------------------------

    def receive(self, message: NetworkMessage) -> None:
        payload = message.payload
        if isinstance(payload, msg.RegisterNode):
            self._handle_register(payload)
        elif isinstance(payload, msg.RouteStateNotification):
            self._route(payload.source, payload.targets, payload.state)
        elif isinstance(payload, msg.DeliverStateNotification):
            for target in payload.targets:
                self._deliver_local(target, payload.source, payload.state)
        elif isinstance(payload, msg.CrashNotification):
            if payload.machine in self._local:
                self._handle_local_crash(payload.machine, self_reported=payload.self_reported)
            else:
                self._dead.add(payload.machine)
        elif isinstance(payload, msg.ExitNotification):
            if payload.machine in self._local:
                self._handle_local_exit(payload.machine)
            else:
                self._dead.add(payload.machine)
        elif isinstance(payload, msg.NodeLocation):
            self._locations[payload.machine] = payload.host
            self._dead.discard(payload.machine)
        elif isinstance(payload, msg.StartStateMachine):
            self.context.spawn_node(
                payload.machine,
                host=self.host.name,
                is_restart=True if payload.is_restart else None,
            )
        elif isinstance(payload, msg.KillStateMachine):
            self._kill(payload.machine)
        elif isinstance(payload, msg.KillAllStateMachines):
            for machine, info in list(self._local.items()):
                if info["alive"]:
                    self._kill(machine)
        elif isinstance(payload, msg.WatchdogAck):
            info = self._local.get(payload.machine)
            if info is not None:
                info["last_ack"] = self.local_clock()
        elif isinstance(payload, msg.StateUpdateRequest):
            self._handle_state_update_request(message, payload)
        elif isinstance(payload, msg.DaemonHello):
            pass
        else:
            self.context.stats["daemon_unknown_messages"] += 1

    # -- registration and routing --------------------------------------------------

    def _handle_register(self, payload: msg.RegisterNode) -> None:
        self._local[payload.machine] = {"alive": True, "last_ack": self.local_clock()}
        self._locations[payload.machine] = payload.host
        self._dead.discard(payload.machine)
        self.context.stats["registrations"] += 1
        announcement = msg.NodeLocation(
            machine=payload.machine, host=payload.host, is_restart=payload.is_restart
        )
        for peer in self.peer_daemons():
            self.send(peer, announcement)
        self.send(CENTRAL_DAEMON_NAME, announcement)

    def _route(self, source: str, targets: tuple[str, ...], state: str) -> None:
        self.context.stats["notifications_routed"] += 1
        remote_groups: dict[str, list[str]] = {}
        for target in targets:
            if target in self._dead:
                self.context.stats["notifications_to_dead"] += 1
                continue
            host = self._locations.get(target)
            if host is None:
                self.context.stats["notifications_unknown_target"] += 1
                continue
            daemon = self.context.daemon_name(host, target)
            if daemon == self.name:
                self._deliver_local(target, source, state)
            else:
                remote_groups.setdefault(daemon, []).append(target)
        for daemon, group in remote_groups.items():
            self.context.stats["daemon_forwards"] += 1
            self.send(
                daemon,
                msg.DeliverStateNotification(source=source, targets=tuple(group), state=state),
            )

    def _deliver_local(self, target: str, source: str, state: str) -> None:
        if target in self._dead:
            self.context.stats["notifications_to_dead"] += 1
            return
        self.context.stats["notifications_delivered"] += 1
        self.send(target, msg.StateNotification(source=source, state=state))

    def _handle_state_update_request(
        self, message: NetworkMessage, payload: msg.StateUpdateRequest
    ) -> None:
        sender = message.source.split("/", 1)[-1]
        from_peer_daemon = sender in self.context.daemon_names()
        if not from_peer_daemon:
            for peer in self.peer_daemons():
                self.send(peer, payload)
        for machine, info in self._local.items():
            if info["alive"] and machine != payload.requester:
                self.send(machine, payload)

    # -- crash, exit, and watchdog ----------------------------------------------------

    def _handle_local_crash(self, machine: str, self_reported: bool) -> None:
        info = self._local.get(machine)
        if info is None or not info["alive"]:
            return
        info["alive"] = False
        self._dead.add(machine)
        self.context.stats["crashes_detected"] += 1
        if not self_reported:
            self.context.stats["watchdog_crash_detections"] += 1
        timeline = self.context.timeline_store.get(machine)
        if timeline is not None and timeline.final_state() != _CRASH:
            timeline.add_state_change(
                event=_CRASH, new_state=_CRASH, time=self.local_clock(), host=self.host.name
            )
        notification = msg.CrashNotification(
            machine=machine, host=self.host.name, self_reported=self_reported
        )
        for peer in self.peer_daemons():
            self.send(peer, notification)
        self.send(CENTRAL_DAEMON_NAME, notification)
        self._check_local_end()

    def _handle_local_exit(self, machine: str) -> None:
        info = self._local.get(machine)
        if info is None or not info["alive"]:
            return
        info["alive"] = False
        self._dead.add(machine)
        self.context.stats["exits_observed"] += 1
        notification = msg.ExitNotification(machine=machine, host=self.host.name)
        for peer in self.peer_daemons():
            self.send(peer, notification)
        self.send(CENTRAL_DAEMON_NAME, notification)
        self._check_local_end()

    def _check_local_end(self) -> None:
        if self._local and not any(info["alive"] for info in self._local.values()):
            self.send(CENTRAL_DAEMON_NAME, msg.ExperimentEndNotification(host=self.host.name))

    def _kill(self, machine: str) -> None:
        process = self.context.environment.process(machine)
        if process is None or not process.alive:
            return
        kill = getattr(process, "kill", None)
        if callable(kill):
            kill()
        else:
            process.crash(reason="killed by daemon")
        self.context.stats["machines_killed"] += 1

    def _watchdog_tick(self) -> None:
        if not self.alive:
            return
        now = self.local_clock()
        timeout = self.context.watchdog.timeout
        self._watchdog_sequence += 1
        for machine, info in list(self._local.items()):
            if not info["alive"]:
                continue
            process = self.context.environment.process(machine)
            process_dead = process is None or not process.alive
            if process_dead or now - info["last_ack"] > timeout:
                self._handle_local_crash(machine, self_reported=False)
            else:
                self.send(machine, msg.WatchdogPing(sequence=self._watchdog_sequence))
        self.set_timer(self.context.watchdog.interval, self._watchdog_tick)


class CentralDaemonProcess(SimProcess):
    """Experiment manager: start-up, timeout, restart policy, completion."""

    def __init__(self, context: ExperimentContext) -> None:
        super().__init__(CENTRAL_DAEMON_NAME)
        self.context = context
        self._seen: set[str] = set()
        # Registration and termination *counts* per machine: notification
        # messages can overtake each other on the network (a crash report may
        # arrive before the registration announcement it refers to), so
        # liveness is derived from the difference of the two counters rather
        # than from message order.
        self._registrations: dict[str, int] = {}
        self._terminations: dict[str, int] = {}
        self._pending_restarts: set[str] = set()
        self._restart_counts: dict[str, int] = {}
        self._end_reports: set[str] = set()
        self.timed_out = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.set_timer(self.context.experiment_timeout, self._on_timeout)
        self.context.environment.add_termination_listener(self._on_process_terminated)
        for nickname, host in self.context.initial_placements:
            daemon = self.context.daemon_name(host, nickname)
            self.send(daemon, msg.StartStateMachine(machine=nickname))

    # -- message handling -----------------------------------------------------------

    def receive(self, message: NetworkMessage) -> None:
        payload = message.payload
        if isinstance(payload, msg.NodeLocation):
            self._seen.add(payload.machine)
            self._registrations[payload.machine] = self._registrations.get(payload.machine, 0) + 1
            self._pending_restarts.discard(payload.machine)
            self._check_complete()
        elif isinstance(payload, msg.CrashNotification):
            self._seen.add(payload.machine)
            self._terminations[payload.machine] = self._terminations.get(payload.machine, 0) + 1
            self._maybe_restart(payload.machine, payload.host)
            self._check_complete()
        elif isinstance(payload, msg.ExitNotification):
            self._seen.add(payload.machine)
            self._terminations[payload.machine] = self._terminations.get(payload.machine, 0) + 1
            self._check_complete()
        elif isinstance(payload, msg.ExperimentEndNotification):
            self._end_reports.add(payload.host)
            self._check_complete()
        elif isinstance(payload, (msg.DaemonHello, msg.WatchdogAck)):
            pass
        else:
            self.context.stats["central_unknown_messages"] += 1

    # -- completion, restart, timeout --------------------------------------------------

    def _live_machines(self) -> list[str]:
        machines = set(self._registrations) | set(self._terminations)
        return [
            machine
            for machine in machines
            if self._registrations.get(machine, 0) > self._terminations.get(machine, 0)
        ]

    def _check_complete(self) -> None:
        if self.context.experiment_complete:
            return
        # Every machine started at the beginning must have registered at
        # least once before the experiment can be considered over; otherwise
        # an early crash report that overtook the other registrations could
        # end the experiment prematurely.
        for nickname, _host in self.context.initial_placements:
            if self._registrations.get(nickname, 0) == 0:
                return
        if self._seen and not self._live_machines() and not self._pending_restarts:
            self.context.mark_complete()

    def _maybe_restart(self, machine: str, crashed_host: str) -> None:
        policy = self.context.restart_policy
        if not policy.enabled:
            return
        count = self._restart_counts.get(machine, 0)
        if count >= policy.max_restarts:
            return
        if policy.success_probability < 1.0:
            rng = self.context.environment.streams.stream("restart-policy")
            if rng.random() >= policy.success_probability:
                self.context.stats["restarts_failed"] += 1
                return
        self._restart_counts[machine] = count + 1
        self._pending_restarts.add(machine)
        host = policy.choose_host(crashed_host, self.context.hosts)
        self.set_timer(policy.delay, self._do_restart, machine, host)

    def _do_restart(self, machine: str, host: str) -> None:
        if self.context.experiment_complete or not self.alive:
            self._pending_restarts.discard(machine)
            return
        daemon = self.context.daemon_name(host, machine)
        self.send(daemon, msg.StartStateMachine(machine=machine, is_restart=True))
        self.context.stats["restarts_requested"] += 1

    def _on_timeout(self) -> None:
        if self.context.experiment_complete:
            return
        self.timed_out = True
        self.context.stats["experiment_timeouts"] += 1
        for daemon in self.context.daemon_names():
            self.send(daemon, msg.KillAllStateMachines())
        self.context.mark_aborted("experiment timeout")

    def _on_process_terminated(self, process, crashed: bool) -> None:
        if not crashed or self.context.experiment_complete:
            return
        if process.name in self.context.daemon_names():
            # A local daemon crashed: abnormality, abort the experiment
            # (host crash and reboot support is future work in the paper).
            for daemon in self.context.daemon_names():
                if daemon != process.name:
                    self.send(daemon, msg.KillAllStateMachines())
            self.context.mark_aborted(f"daemon {process.name} crashed")
