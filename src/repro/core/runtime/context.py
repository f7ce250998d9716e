"""Shared per-experiment state: node definitions, timelines, policies.

The :class:`ExperimentContext` is created by the campaign runner for every
experiment and handed to the central daemon, the local daemons, and every
node.  It owns the in-memory :class:`TimelineStore` (the analogue of the
NFS-mounted timeline files of the paper), the node definitions needed to
spawn state machines dynamically, the restart policy, and the counters used
by the design-choice ablation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.specs.fault_spec import FaultSpecification
from repro.core.specs.files import NodeFileEntry
from repro.core.specs.state_machine import (
    RESERVED_EVENTS,
    RESERVED_STATES,
    StateMachineSpecification,
)
from repro.core.runtime.designs import RuntimeDesign
from repro.core.timeline import LocalTimeline
from repro.errors import RuntimeConfigurationError
from repro.sim.environment import Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.runtime.application import LokiApplication
    from repro.core.runtime.node import LokiNodeProcess


@dataclass(frozen=True)
class NodeDefinition:
    """Everything needed to start (or restart) one state machine."""

    nickname: str
    specification: StateMachineSpecification
    faults: FaultSpecification
    application_factory: Callable[[], "LokiApplication"]
    start_host: str | None = None
    arguments: tuple[str, ...] = ()

    def node_file_entry(self) -> NodeFileEntry:
        """The node-file line corresponding to this definition."""
        return NodeFileEntry(nickname=self.nickname, host=self.start_host)


@dataclass(frozen=True)
class RestartPolicy:
    """Whether and how the central daemon restarts crashed nodes.

    ``restart_host`` selects where the node comes back up: ``"same"`` keeps
    it on the host it crashed on, ``"next"`` moves it to the next host of
    the machines file (exercising restart-on-a-different-host), and a
    concrete host name pins it.  ``success_probability`` models an imperfect
    recovery mechanism: each restart attempt independently succeeds with
    this probability, which gives the Chapter 5 coverage measure a known
    ground truth to estimate.
    """

    enabled: bool = False
    delay: float = 0.050
    max_restarts: int = 1
    restart_host: str = "same"
    success_probability: float = 1.0

    def choose_host(self, crashed_host: str, hosts: tuple[str, ...]) -> str:
        """Pick the host a crashed node should restart on."""
        if self.restart_host == "same":
            return crashed_host
        if self.restart_host == "next":
            if crashed_host in hosts and len(hosts) > 1:
                index = hosts.index(crashed_host)
                return hosts[(index + 1) % len(hosts)]
            return crashed_host
        if self.restart_host in hosts:
            return self.restart_host
        raise RuntimeConfigurationError(
            f"restart host {self.restart_host!r} is not in the machines file {hosts}"
        )


@dataclass(frozen=True)
class WatchdogConfig:
    """Local-daemon watchdog parameters (Section 3.6.2)."""

    interval: float = 0.100
    timeout: float = 0.350
    enabled: bool = True


class TimelineStore:
    """In-memory analogue of the NFS-mounted local timeline files.

    A restarted node finds its previous timeline here, which is how the
    runtime distinguishes a new node from a restarted one (Section 3.6.3).
    """

    def __init__(self) -> None:
        self._timelines: dict[str, LocalTimeline] = {}

    def has(self, machine: str) -> bool:
        """Whether a timeline already exists for ``machine``."""
        return machine in self._timelines

    def get(self, machine: str) -> LocalTimeline | None:
        """The timeline for ``machine`` if it exists."""
        return self._timelines.get(machine)

    def get_or_create(
        self,
        machine: str,
        all_machines: tuple[str, ...],
        specification: StateMachineSpecification,
        faults: FaultSpecification,
    ) -> LocalTimeline:
        """Return the existing timeline for ``machine`` or create a fresh one."""
        if machine in self._timelines:
            return self._timelines[machine]
        global_states = list(specification.global_states)
        for reserved in sorted(RESERVED_STATES):
            if reserved not in global_states:
                global_states.append(reserved)
        events = list(specification.events)
        for reserved in sorted(RESERVED_EVENTS):
            if reserved not in events:
                events.append(reserved)
        timeline = LocalTimeline(
            machine=machine,
            state_machines=tuple(all_machines),
            global_states=tuple(global_states),
            events=tuple(events),
            faults=faults,
        )
        self._timelines[machine] = timeline
        return timeline

    def timelines(self) -> dict[str, LocalTimeline]:
        """A copy of the nickname-to-timeline mapping."""
        return dict(self._timelines)

    def __len__(self) -> int:
        return len(self._timelines)


@dataclass
class ExperimentContext:
    """Everything shared across the runtime components of one experiment."""

    environment: Environment
    design: RuntimeDesign
    node_definitions: dict[str, NodeDefinition]
    hosts: tuple[str, ...]
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    experiment_timeout: float = 10.0
    timeline_store: TimelineStore = field(default_factory=TimelineStore)
    stats: Counter = field(default_factory=Counter)

    # Mutable experiment status flags maintained by the central daemon.
    experiment_complete: bool = False
    experiment_aborted: bool = False
    abort_reason: str | None = None

    def __post_init__(self) -> None:
        for nickname, definition in self.node_definitions.items():
            if nickname != definition.nickname:
                raise RuntimeConfigurationError(
                    f"node definition key {nickname!r} does not match nickname "
                    f"{definition.nickname!r}"
                )
            if definition.start_host is not None and definition.start_host not in self.hosts:
                raise RuntimeConfigurationError(
                    f"node {nickname!r} starts on unknown host {definition.start_host!r}"
                )

    # -- naming -------------------------------------------------------------------

    @property
    def machine_names(self) -> tuple[str, ...]:
        """Nicknames of every state machine defined for the study."""
        return tuple(self.node_definitions)

    def daemon_name(self, host: str, machine: str | None = None) -> str:
        """Process name of the daemon serving ``machine`` on ``host``."""
        return self.design.daemon_name(host, machine)

    def daemon_names(self) -> tuple[str, ...]:
        """Process names of every routing daemon of the chosen design."""
        names: list[str] = []
        from repro.core.runtime.designs import DaemonPlacement

        if self.design.placement is DaemonPlacement.CENTRALIZED:
            names.append(self.design.daemon_name(self.hosts[0]))
        elif self.design.placement is DaemonPlacement.PARTIALLY_DISTRIBUTED:
            names.extend(self.design.daemon_name(host) for host in self.hosts)
        else:
            names.extend(
                self.design.daemon_name(self.daemon_host_for(nickname), nickname)
                for nickname in self.node_definitions
            )
        return tuple(names)

    def daemon_host_for(self, machine: str) -> str:
        """The host a fully-distributed daemon for ``machine`` lives on."""
        definition = self.node_definitions[machine]
        return definition.start_host or self.hosts[0]

    # -- node management ------------------------------------------------------------

    def node_file_entries(self) -> tuple[NodeFileEntry, ...]:
        """The node file used by the central daemon at experiment start."""
        # repro-lint: disable=R003 definition order comes from the study config and is stable
        return tuple(defn.node_file_entry() for defn in self.node_definitions.values())

    def spawn_node(self, nickname: str, host: str, is_restart: bool | None = None) -> "LokiNodeProcess":
        """Create and start the node process for ``nickname`` on ``host``."""
        from repro.core.runtime.node import LokiNodeProcess

        definition = self.node_definitions.get(nickname)
        if definition is None:
            raise RuntimeConfigurationError(f"unknown state machine {nickname!r}")
        existing = self.timeline_store.get(nickname)
        if is_restart is None:
            is_restart = existing is not None and not existing.is_empty()
        node = LokiNodeProcess(definition=definition, context=self, is_restart=is_restart)
        self.environment.spawn(node, host)
        self.stats["nodes_spawned"] += 1
        if is_restart:
            self.stats["nodes_restarted"] += 1
        return node

    def mark_complete(self) -> None:
        """Flag the experiment as complete and stop the kernel's run.

        Set by the central daemon; the campaign's :meth:`SimKernel.run`
        returns before the next event.
        """
        self.experiment_complete = True
        self.environment.kernel.stop()

    def mark_aborted(self, reason: str) -> None:
        """Flag the experiment as aborted (timeout or daemon failure)."""
        self.experiment_aborted = True
        self.abort_reason = reason
        self.mark_complete()
