"""The leader-election test application of Chapter 5.

``n`` processes elect a leader: each picks a random number and sends it to
the others; the process with the highest number becomes the leader (ties
re-run the round).  The leader sends heartbeats; when it crashes, the
followers detect the silence, raise a ``LEADER_CRASH`` event, and elect a
new leader.  Crashed processes can be restarted by the central daemon's
restart policy and rejoin as followers.

The module also provides the paper's state-machine specification
(Figure 5.1 / Section 5.3), the fault specifications of Section 5.4, and a
:func:`build_election_study` helper that assembles a ready-to-run
:class:`~repro.core.campaign.StudyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.campaign import HostConfig, StudyConfig
from repro.core.expression import And, Or, StateAtom
from repro.core.runtime.application import LokiApplication, NodeContext
from repro.core.runtime.context import NodeDefinition, RestartPolicy
from repro.core.specs.fault_spec import FaultDefinition, FaultSpecification, FaultTrigger
from repro.core.specs.state_machine import (
    StateMachineSpecification,
    StateSpecification,
    build_specification,
)
from repro.measures import (
    MeasureStep,
    StateTuple,
    StudyMeasure,
    TotalDuration,
    UserObservation,
    value_positive,
)
from repro.sim.topology import NetworkConfig

#: The three state machines of the worked example.
DEFAULT_MACHINES = ("black", "yellow", "green")

ELECTION_STATES = ("BEGIN", "INIT", "RESTART_SM", "ELECT", "FOLLOW", "LEAD", "CRASH", "EXIT")
ELECTION_EVENTS = (
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


def election_state_machine_spec(name: str, peers: tuple[str, ...]) -> StateMachineSpecification:
    """The Section 5.3 state-machine specification for one process.

    ``peers`` is the notify list used for the INIT, RESTART_SM, and CRASH
    states (the states other machines' fault expressions depend on).
    """
    others = tuple(peer for peer in peers if peer != name)
    states = [
        StateSpecification(
            name="INIT",
            notify=others,
            transitions={"INIT_DONE": "ELECT", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="RESTART_SM",
            notify=others,
            transitions={"RESTART_DONE": "FOLLOW", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="ELECT",
            notify=(),
            transitions={
                "FOLLOWER": "FOLLOW",
                "LEADER": "LEAD",
                "CRASH": "CRASH",
                "ERROR": "EXIT",
            },
        ),
        StateSpecification(
            name="LEAD",
            notify=(),
            transitions={"CRASH": "CRASH", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="FOLLOW",
            notify=(),
            transitions={"LEADER_CRASH": "ELECT", "CRASH": "CRASH", "ERROR": "EXIT"},
        ),
        StateSpecification(name="CRASH", notify=others, transitions={}),
        StateSpecification(name="EXIT", notify=(), transitions={}),
    ]
    return build_specification(name, ELECTION_STATES, ELECTION_EVENTS, states)


def leader_fault(machine: str, name: str | None = None) -> FaultDefinition:
    """``(machine:LEAD) always`` — inject whenever the machine becomes leader."""
    return FaultDefinition(
        name=name or f"{machine[0]}fault1",
        expression=StateAtom(machine, "LEAD"),
        trigger=FaultTrigger.ALWAYS,
    )


def correlated_follower_fault(
    leader: str, follower: str, name: str | None = None
) -> FaultDefinition:
    """``((leader:CRASH) & ((follower:FOLLOW) | (follower:ELECT))) once``."""
    expression = And(
        StateAtom(leader, "CRASH"),
        Or(StateAtom(follower, "FOLLOW"), StateAtom(follower, "ELECT")),
    )
    return FaultDefinition(
        name=name or f"{follower[0]}fault2",
        expression=expression,
        trigger=FaultTrigger.ONCE,
    )


def uncorrelated_follower_fault(follower: str, name: str | None = None) -> FaultDefinition:
    """``((follower:FOLLOW) | (follower:ELECT)) once``."""
    expression = Or(StateAtom(follower, "FOLLOW"), StateAtom(follower, "ELECT"))
    return FaultDefinition(
        name=name or f"{follower[0]}fault3",
        expression=expression,
        trigger=FaultTrigger.ONCE,
    )


def coverage_study_measure(machine: str) -> StudyMeasure:
    """The Section 5.8 coverage study measure as an indicator (0/1) value.

    Given that ``machine`` crashed, did the restart mechanism bring it
    back (time in ``RESTART_SM`` greater than zero)?  Shared by the
    Chapter 5 evaluation harness and the scenario registry.
    """
    indicator = UserObservation(
        lambda timeline: 1.0 if timeline.true_duration() > 0 else 0.0,
        name="total_duration(T) > 0",
    )
    return StudyMeasure(
        name=f"{machine}-coverage",
        steps=(
            MeasureStep(StateTuple(machine, "CRASH"), TotalDuration("T")),
            MeasureStep(StateTuple(machine, "RESTART_SM"), indicator, value_positive()),
        ),
    )


@dataclass
class ElectionParameters:
    """Tunable timing and behaviour of the leader-election application."""

    init_delay: float = 0.015
    election_timeout: float = 0.040
    heartbeat_interval: float = 0.020
    heartbeat_timeout: float = 0.070
    run_duration: float = 1.0
    favored: bool = False
    fault_crash_probability: float = 1.0
    correlated_crash_probability: float | None = None
    fault_dormancy: float = 0.002


class LeaderElectionApplication(LokiApplication):
    """One process of the leader-election protocol."""

    def __init__(self, parameters: ElectionParameters | None = None) -> None:
        self.parameters = parameters or ElectionParameters()
        self._round = 0
        self._numbers: dict[str, float] = {}
        self._pending_ballots: list[tuple[str, dict]] = []
        self._deciding = False
        self._leader: str | None = None
        self._is_leader = False
        self._last_heartbeat = 0.0
        self._leader_crash_observed = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        ctx.notify_event("INIT")
        ctx.set_timer(self.parameters.run_duration, self._finish, ctx)
        ctx.set_timer(self.parameters.init_delay, self._initialization_done, ctx)

    def on_restart(self, ctx: NodeContext) -> None:
        ctx.notify_event("RESTART_SM")
        ctx.set_timer(self.parameters.run_duration, self._finish, ctx)
        ctx.set_timer(self.parameters.init_delay, self._restart_done, ctx)

    def _initialization_done(self, ctx: NodeContext) -> None:
        ctx.notify_event("INIT_DONE")
        self._start_election(ctx)

    def _restart_done(self, ctx: NodeContext) -> None:
        ctx.notify_event("RESTART_DONE")
        self._last_heartbeat = ctx.local_time()
        self._watch_leader(ctx)

    def _finish(self, ctx: NodeContext) -> None:
        if ctx.alive and not self._stopped:
            self._stopped = True
            ctx.exit()

    # -- the election protocol ------------------------------------------------------

    def _start_election(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive:
            return
        self._round += 1
        self._numbers = {}
        self._deciding = False
        self._leader = None
        self._is_leader = False
        number = self._pick_number(ctx)
        self._numbers[ctx.nickname] = number
        for peer in ctx.peers():
            if peer != ctx.nickname:
                ctx.send(peer, {"type": "ballot", "round": self._round, "number": number})
        ctx.set_timer(self.parameters.election_timeout, self._decide, ctx, self._round)
        ctx.set_timer(self.parameters.election_timeout / 2.0, self._rebroadcast, ctx, self._round)
        # Ballots that arrived before this process was ready (a peer started
        # its election slightly earlier) are replayed now.
        if self._pending_ballots:
            pending, self._pending_ballots = self._pending_ballots, []
            for source, payload in pending:
                self._handle_ballot(ctx, source, payload)

    def _rebroadcast(self, ctx: NodeContext, election_round: int) -> None:
        """Resend this round's ballot to peers that have not answered yet.

        A ballot sent while a peer was still initializing can be lost; one
        retransmission halfway through the election timeout recovers it.
        """
        if self._stopped or not ctx.alive or self._deciding:
            return
        if election_round != self._round or ctx.current_state != "ELECT":
            return
        number = self._numbers.get(ctx.nickname)
        if number is None:
            return
        for peer in ctx.peers():
            if peer != ctx.nickname and peer not in self._numbers:
                ctx.send(peer, {"type": "ballot", "round": self._round, "number": number})

    def _pick_number(self, ctx: NodeContext) -> float:
        base = ctx.random.random()
        if self.parameters.favored:
            base += 10.0
        return base

    def on_message(self, ctx: NodeContext, source: str, payload: object) -> None:
        if self._stopped or not isinstance(payload, dict):
            return
        kind = payload.get("type")
        if kind == "ballot":
            self._handle_ballot(ctx, source, payload)
        elif kind == "heartbeat":
            self._last_heartbeat = ctx.local_time()
            self._leader = source
        elif kind == "leader":
            self._leader = source
            self._last_heartbeat = ctx.local_time()

    def _handle_ballot(self, ctx: NodeContext, source: str, payload: dict) -> None:
        ballot_round = int(payload["round"])
        if ballot_round > self._round and ctx.current_state not in ("FOLLOW", "ELECT"):
            # This process has not begun (or rejoined) electing yet; keep the
            # ballot until its own election round starts.
            self._pending_ballots.append((source, payload))
            return
        if ballot_round > self._round and ctx.current_state in ("FOLLOW", "ELECT"):
            # A peer started a newer election (e.g. it detected the leader
            # crash first); join it.
            if ctx.current_state == "FOLLOW":
                ctx.notify_event("LEADER_CRASH")
            self._round = ballot_round - 1
            self._start_election(ctx)
        if ballot_round == self._round:
            self._numbers[source] = float(payload["number"])
            if len(self._numbers) == len(ctx.peers()) and not self._deciding:
                self._decide(ctx, self._round)

    def _decide(self, ctx: NodeContext, election_round: int) -> None:
        if self._stopped or not ctx.alive or self._deciding:
            return
        if election_round != self._round or ctx.current_state != "ELECT":
            return
        if not self._numbers:
            return
        self._deciding = True
        best = max(self._numbers.values())
        winners = sorted(name for name, number in self._numbers.items() if number == best)
        if len(winners) > 1:
            # Tie: repeat the arbitration, as in the paper's protocol.
            self._start_election(ctx)
            return
        winner = winners[0]
        self._leader = winner
        self._last_heartbeat = ctx.local_time()
        if winner == ctx.nickname:
            self._is_leader = True
            ctx.notify_event("LEADER")
            self._send_heartbeat(ctx)
        else:
            self._is_leader = False
            ctx.notify_event("FOLLOWER")
            self._watch_leader(ctx)

    # -- leading and following ----------------------------------------------------------

    def _send_heartbeat(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive or not self._is_leader:
            return
        for peer in ctx.peers():
            if peer != ctx.nickname:
                ctx.send(peer, {"type": "heartbeat"})
        ctx.set_timer(self.parameters.heartbeat_interval, self._send_heartbeat, ctx)

    def _watch_leader(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive or self._is_leader:
            return
        silence = ctx.local_time() - self._last_heartbeat
        if silence > self.parameters.heartbeat_timeout and ctx.current_state == "FOLLOW":
            self._leader_crash_observed = True
            ctx.notify_event("LEADER_CRASH")
            self._start_election(ctx)
            return
        ctx.set_timer(self.parameters.heartbeat_interval, self._watch_leader, ctx)

    # -- fault injection --------------------------------------------------------------------

    def on_fault(self, ctx: NodeContext, fault_name: str) -> None:
        """Inject a fault; it becomes an error (a crash) with a configured probability.

        The crash happens after a short dormancy (the fault-to-error latency
        of the paper's fault model), so the injection instant itself lies
        strictly inside the triggering global state.
        """
        probability = self.parameters.fault_crash_probability
        leader_known_crashed = (
            self._leader_crash_observed
            or (self._leader is not None and ctx.partial_view.get(self._leader) == "CRASH")
        )
        if self.parameters.correlated_crash_probability is not None and leader_known_crashed:
            probability = self.parameters.correlated_crash_probability
        if ctx.random.random() < probability:
            ctx.set_timer(
                self.parameters.fault_dormancy,
                lambda: ctx.crash(reason=f"fault {fault_name} became an error"),
            )


def build_election_study(
    name: str,
    faults_by_machine: dict[str, tuple[FaultDefinition, ...]],
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    hosts: tuple[str, ...] = ("hosta", "hostb", "hostc"),
    experiments: int = 20,
    parameters_by_machine: dict[str, ElectionParameters] | None = None,
    restart_policy: RestartPolicy | None = None,
    experiment_timeout: float = 4.0,
    network: NetworkConfig | None = None,
    seed: int = 0,
    weight: float = 1.0,
) -> StudyConfig:
    """Assemble a ready-to-run leader-election study.

    ``faults_by_machine`` gives each machine its fault definitions (machines
    may be absent, meaning no faults are injected into them).  Each machine
    is placed round-robin on the given hosts.
    """
    parameters_by_machine = parameters_by_machine or {}
    nodes: list[NodeDefinition] = []
    for index, machine in enumerate(machines):
        parameters = parameters_by_machine.get(machine, ElectionParameters())
        nodes.append(
            NodeDefinition(
                nickname=machine,
                specification=election_state_machine_spec(machine, machines),
                faults=FaultSpecification.from_definitions(faults_by_machine.get(machine, ())),
                application_factory=(
                    lambda parameters=parameters: LeaderElectionApplication(parameters)
                ),
                start_host=hosts[index % len(hosts)],
            )
        )
    return StudyConfig(
        name=name,
        hosts=[HostConfig(name=host) for host in hosts],
        nodes=nodes,
        experiments=experiments,
        restart_policy=restart_policy or RestartPolicy(enabled=True, delay=0.050, max_restarts=2),
        experiment_timeout=experiment_timeout,
        network=network or NetworkConfig(),
        seed=seed,
        weight=weight,
    )
