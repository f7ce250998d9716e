"""Facade wiring hosts, processes, the network, and the kernel together.

An :class:`Environment` is one deployment of the distributed system under
study plus the Loki runtime: a set of hosts (each with its own clock and
scheduler), the processes placed on them, and the topology-aware network
connecting them.  The campaign runner builds a fresh environment for every
experiment so that no state leaks between experiments.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.errors import RuntimeConfigurationError, RuntimePhaseError
from repro.sim.clock import ClockParameters, HardwareClock
from repro.sim.host import Host, SchedulerConfig
from repro.sim.kernel import SimKernel
from repro.sim.network import (
    IPC_PROFILE,
    LAN_TCP_PROFILE,
    DeliveryEvent,
    LinkProfile,
    NetworkMessage,
    NetworkModel,
)
from repro.sim.process import SimProcess
from repro.sim.rng import RandomStreams
from repro.sim.topology import NetworkConfig, Topology


class Environment:
    """One simulated deployment: hosts, processes, network, virtual time."""

    def __init__(
        self,
        seed: int = 0,
        default_scheduler: SchedulerConfig | None = None,
        ipc_profile: LinkProfile = IPC_PROFILE,
        lan_profile: LinkProfile = LAN_TCP_PROFILE,
        network: NetworkConfig | None = None,
    ) -> None:
        self.kernel = SimKernel()
        self.streams = RandomStreams(seed)
        topology = Topology(ipc_profile=ipc_profile, default_profile=lan_profile)
        if network is not None:
            for source_host, destination_host, profile in network.link_profiles:
                topology.set_profile(source_host, destination_host, profile)
        self.network = NetworkModel(self.kernel, self.streams, topology=topology)
        self._default_scheduler = default_scheduler or SchedulerConfig()
        self._hosts: dict[str, Host] = {}
        self._processes: dict[str, SimProcess] = {}
        self._termination_listeners: list[Callable[[SimProcess, bool], None]] = []
        self._dispatch_floor: dict[tuple[str, str], float] = {}

    @property
    def topology(self) -> Topology:
        """The network topology of this deployment."""
        return self.network.topology

    @property
    def ipc_profile(self) -> LinkProfile:
        """Default delay profile for messages between processes on one host."""
        return self.topology.ipc_profile

    @property
    def lan_profile(self) -> LinkProfile:
        """Default delay profile for messages between processes on different hosts."""
        return self.topology.default_profile

    # -- hosts ---------------------------------------------------------------

    def add_host(
        self,
        name: str,
        clock: ClockParameters | HardwareClock | None = None,
        scheduler: SchedulerConfig | None = None,
    ) -> Host:
        """Create and register a host.

        Host names must be unique and must not contain ``"/"`` (the
        endpoint separator); violations raise
        :class:`~repro.errors.RuntimeConfigurationError` instead of
        silently shadowing or corrupting the routing tables.
        """
        if "/" in name:
            raise RuntimeConfigurationError(
                f"host name {name!r} must not contain '/' (the endpoint separator)"
            )
        if name in self._hosts:
            raise RuntimeConfigurationError(
                f"host {name!r} already exists (hosts: {sorted(self._hosts)})"
            )
        host = Host(
            name, self.streams, clock=clock, scheduler=scheduler or self._default_scheduler
        )
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise RuntimeConfigurationError(f"unknown host {name!r}") from None

    @property
    def hosts(self) -> dict[str, Host]:
        """All hosts registered with the environment."""
        return dict(self._hosts)

    # -- processes -----------------------------------------------------------

    def spawn(self, process: SimProcess, host_name: str, start_delay: float = 0.0) -> SimProcess:
        """Place a process on a host and schedule its ``start`` callback.

        Process names must not contain ``"/"`` (the endpoint separator),
        and a name can only be reused once its previous owner has
        terminated (that reuse is how crashed nodes restart); a duplicate
        live name raises :class:`~repro.errors.RuntimeConfigurationError`
        instead of silently shadowing the running process.
        """
        host = self.host(host_name)
        if "/" in process.name:
            raise RuntimeConfigurationError(
                f"process name {process.name!r} must not contain '/' "
                "(the endpoint separator)"
            )
        existing = self._processes.get(process.name)
        if existing is not None and existing._alive:
            raise RuntimeConfigurationError(
                f"a live process named {process.name!r} already exists "
                f"on host {existing._host.name!r}"
            )
        process._bind(self, host)
        self._processes[process.name] = process
        kernel = self.kernel
        kernel.post_at(kernel._now + start_delay, self._start_process, process)
        return process

    def _start_process(self, process: SimProcess) -> None:
        if process._alive:
            process.start()

    def process(self, name: str) -> SimProcess | None:
        """Look up a process by name (``None`` if it never existed)."""
        return self._processes.get(name)

    @property
    def processes(self) -> dict[str, SimProcess]:
        """All processes ever spawned in the environment, by name."""
        return dict(self._processes)

    def process_terminated(self, process: SimProcess, crashed: bool) -> None:
        """Internal: called by processes when they exit or crash."""
        for listener in list(self._termination_listeners):
            listener(process, crashed)

    def add_termination_listener(self, listener: Callable[[SimProcess, bool], None]) -> None:
        """Register a callback invoked as ``listener(process, crashed)``."""
        self._termination_listeners.append(listener)

    # -- messaging -----------------------------------------------------------

    def endpoint(self, process_name: str) -> str:
        """The network endpoint identifier of a process."""
        process = self._processes.get(process_name)
        return f"?/{process_name}" if process is None else process._endpoint

    def send(self, source: str, destination: str, payload: Any) -> None:
        """Send ``payload`` from one named process to another.

        The link is resolved from the topology: the hosts of the two
        processes select the intra-host IPC link or the inter-host link,
        whose current :class:`~repro.sim.topology.LinkState` governs
        delay, loss, duplication, reordering, and outages.  Delivery
        charges the destination host's scheduling delay before the
        receiving process's ``receive`` method runs; messages to dead
        processes are dropped and recorded as ``"dead-target"`` delivery
        events between the two process names, whether the target was dead
        at the send or died while the message was in flight.
        """
        src = self._processes.get(source)
        dst = self._processes.get(destination)
        if src is None:
            raise RuntimePhaseError(f"unknown sender process {source!r}")
        if dst is None or not dst._alive:
            self.network.record_event("dead-target", source, destination)
            return
        self.network.send(
            src._endpoint,
            dst._endpoint,
            payload,
            partial(self._deliver, source, destination),
        )

    def _deliver(self, source: str, destination: str, message: NetworkMessage) -> None:
        process = self._processes.get(destination)
        if process is None or not process._alive:
            self.network.record_event("dead-target", source, destination)
            return
        delay = process._host.scheduling_delay()
        # A receiving process drains one connection's messages in arrival
        # order: its per-message scheduling delay must not let a later
        # message from the same sender overtake an earlier one (the kernel
        # breaks equal-time ties by insertion order, preserving FIFO).
        pair = (message.source, destination)
        dispatch_at = max(self.kernel._now + delay, self._dispatch_floor.get(pair, 0.0))
        self._dispatch_floor[pair] = dispatch_at
        self.kernel.post_at(dispatch_at, self._dispatch, source, destination, message)

    def _dispatch(self, source: str, destination: str, message: NetworkMessage) -> None:
        process = self._processes.get(destination)
        if process is None or not process._alive:
            self.network.record_event("dead-target", source, destination)
            return
        process.receive(message)

    @property
    def delivery_events(self) -> list[DeliveryEvent]:
        """Every structured delivery event of the experiment, in time order.

        Includes substrate faults (loss, partition, link outage,
        duplication, reordering) recorded by the network model and the
        environment's ``"dead-target"`` drops.
        """
        return list(self.network.events)

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the simulation (see :meth:`SimKernel.run`)."""
        self.kernel.run(until=until, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Environment(hosts={sorted(self._hosts)}, processes={len(self._processes)}, "
            f"t={self.kernel.now:.6f})"
        )
