"""A two-phase-commit (atomic commitment) service with 2PC-specific faults.

One *coordinator* repeatedly runs transactions against a set of
*participants*: it enters ``PREPARE`` and sends prepare requests, each
participant votes (``VOTED``) or refuses, and the coordinator decides
``COMMIT`` when every vote is yes and ``ABORT`` otherwise — including when
votes do not arrive before its vote timeout.  Participants that voted yes
block in ``VOTED`` until the decision arrives; if it never does they time
out into ``ABORTED`` (presumed abort).

The protocol's classic weakness is the *in-doubt window*: a participant
that has voted yes while the coordinator is still deciding.  That window is
a genuinely global state — ``(coordinator:PREPARE) & (participant:VOTED)``
— and crashing the coordinator exactly there is the kind of fault a purely
local-state injector cannot target.  The fault helpers below express the
paper-style correlated (in-doubt) and uncorrelated variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.campaign import HostConfig, StudyConfig
from repro.core.expression import And, StateAtom
from repro.core.runtime.application import LokiApplication, NodeContext
from repro.core.runtime.context import NodeDefinition, RestartPolicy
from repro.core.specs.fault_spec import FaultDefinition, FaultSpecification, FaultTrigger
from repro.core.specs.state_machine import (
    StateMachineSpecification,
    StateSpecification,
    build_specification,
)
from repro.errors import RuntimeConfigurationError
from repro.sim.topology import NetworkConfig

#: Default nicknames of the two-phase-commit machines.
DEFAULT_MACHINES = ("coordinator", "part1", "part2")

COORDINATOR_STATES = ("BEGIN", "IDLE", "PREPARE", "COMMIT", "ABORT", "CRASH", "EXIT")
COORDINATOR_EVENTS = ("BEGIN_TX", "ALL_YES", "VOTE_NO", "TIMEOUT", "TX_DONE", "ERROR")

PARTICIPANT_STATES = ("BEGIN", "READY", "VOTED", "COMMITTED", "ABORTED", "CRASH", "EXIT")
PARTICIPANT_EVENTS = (
    "VOTE_YES",
    "VOTE_NO",
    "DECIDE_COMMIT",
    "DECIDE_ABORT",
    "TIMEOUT",
    "NEXT_TX",
    "ERROR",
)


def coordinator_state_machine_spec(
    name: str, peers: tuple[str, ...]
) -> StateMachineSpecification:
    """State machine of the coordinator.

    The phase states (PREPARE, COMMIT, ABORT) and CRASH notify the
    participants: remote fault expressions reference them, and participants
    use the CRASH notification to explain decision silence.
    """
    others = tuple(peer for peer in peers if peer != name)
    states = [
        StateSpecification(
            name="IDLE",
            notify=(),
            transitions={"BEGIN_TX": "PREPARE", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="PREPARE",
            notify=others,
            transitions={
                "ALL_YES": "COMMIT",
                "VOTE_NO": "ABORT",
                "TIMEOUT": "ABORT",
                "ERROR": "EXIT",
            },
        ),
        StateSpecification(
            name="COMMIT",
            notify=others,
            transitions={"TX_DONE": "IDLE", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="ABORT",
            notify=others,
            transitions={"TX_DONE": "IDLE", "ERROR": "EXIT"},
        ),
        StateSpecification(name="CRASH", notify=others, transitions={}),
        StateSpecification(name="EXIT", notify=(), transitions={}),
    ]
    return build_specification(name, COORDINATOR_STATES, COORDINATOR_EVENTS, states)


def participant_state_machine_spec(
    name: str, peers: tuple[str, ...]
) -> StateMachineSpecification:
    """State machine of one participant.

    VOTED (the in-doubt window) and CRASH notify the other machines so
    remote fault expressions can reference them.
    """
    others = tuple(peer for peer in peers if peer != name)
    states = [
        StateSpecification(
            name="READY",
            notify=(),
            transitions={"VOTE_YES": "VOTED", "VOTE_NO": "ABORTED", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="VOTED",
            notify=others,
            transitions={
                "DECIDE_COMMIT": "COMMITTED",
                "DECIDE_ABORT": "ABORTED",
                "TIMEOUT": "ABORTED",
                "ERROR": "EXIT",
            },
        ),
        StateSpecification(
            name="COMMITTED",
            notify=(),
            transitions={"NEXT_TX": "READY", "ERROR": "EXIT"},
        ),
        StateSpecification(
            name="ABORTED",
            notify=(),
            transitions={"NEXT_TX": "READY", "ERROR": "EXIT"},
        ),
        StateSpecification(name="CRASH", notify=others, transitions={}),
        StateSpecification(name="EXIT", notify=(), transitions={}),
    ]
    return build_specification(name, PARTICIPANT_STATES, PARTICIPANT_EVENTS, states)


def coordinator_in_doubt_fault(
    coordinator: str, participant: str, name: str = "cfault2"
) -> FaultDefinition:
    """``((coordinator:PREPARE) & (participant:VOTED)) once``.

    The correlated variant: the coordinator crashes exactly while a
    participant is in the in-doubt window, leaving it blocked on a decision
    that will never arrive.
    """
    expression = And(StateAtom(coordinator, "PREPARE"), StateAtom(participant, "VOTED"))
    return FaultDefinition(name=name, expression=expression, trigger=FaultTrigger.ONCE)


def participant_voted_fault(participant: str, name: str | None = None) -> FaultDefinition:
    """``(participant:VOTED) once`` — the uncorrelated variant.

    The participant crashes after voting yes, regardless of what the
    coordinator is doing; the coordinator's vote timeout turns the silence
    into an abort.
    """
    return FaultDefinition(
        name=name or f"{participant[0]}vfault",
        expression=StateAtom(participant, "VOTED"),
        trigger=FaultTrigger.ONCE,
    )


@dataclass
class TwoPhaseParameters:
    """Tunable timing and behaviour of the two-phase-commit application."""

    #: The coordinator waits this long before the first transaction, giving
    #: the (daemon-spawned, hence staggered) participants time to reach READY.
    start_delay: float = 0.030
    transaction_interval: float = 0.020
    vote_timeout: float = 0.040
    decision_timeout: float = 0.060
    decision_dwell: float = 0.004
    vote_yes_probability: float = 0.9
    run_duration: float = 0.6
    coordinator: str = "coordinator"
    fault_crash_probability: float = 1.0
    fault_dormancy: float = 0.002


class TwoPhaseCommitApplication(LokiApplication):
    """One machine of the two-phase-commit service.

    The nickname selects the role: the machine named
    ``parameters.coordinator`` drives transactions, every other machine is
    a participant.
    """

    def __init__(self, parameters: TwoPhaseParameters | None = None) -> None:
        self.parameters = parameters or TwoPhaseParameters()
        self._transaction = 0
        self._votes: dict[str, bool] = {}
        self._decided = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    def _is_coordinator(self, ctx: NodeContext) -> bool:
        return ctx.nickname == self.parameters.coordinator

    def _participants(self, ctx: NodeContext) -> tuple[str, ...]:
        return tuple(
            peer for peer in ctx.peers() if peer != self.parameters.coordinator
        )

    def on_start(self, ctx: NodeContext) -> None:
        ctx.notify_event("IDLE" if self._is_coordinator(ctx) else "READY")
        ctx.set_timer(self.parameters.run_duration, self._finish, ctx)
        if self._is_coordinator(ctx):
            ctx.set_timer(self.parameters.start_delay, self._begin_transaction, ctx)

    def _finish(self, ctx: NodeContext) -> None:
        if ctx.alive and not self._stopped:
            self._stopped = True
            ctx.exit()

    # -- coordinator behaviour ----------------------------------------------------

    def _begin_transaction(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive or ctx.current_state != "IDLE":
            return
        self._transaction += 1
        self._votes = {}
        self._decided = False
        ctx.notify_event("BEGIN_TX")
        for peer in self._participants(ctx):
            ctx.send(peer, {"type": "prepare", "transaction": self._transaction})
        ctx.set_timer(self.parameters.vote_timeout, self._vote_timeout, ctx, self._transaction)

    def _vote_timeout(self, ctx: NodeContext, transaction: int) -> None:
        if self._stopped or not ctx.alive or self._decided:
            return
        if transaction != self._transaction or ctx.current_state != "PREPARE":
            return
        self._decide(ctx, commit=False, event="TIMEOUT")

    def _decide(self, ctx: NodeContext, commit: bool, event: str) -> None:
        self._decided = True
        ctx.notify_event(event)
        decision = "commit" if commit else "abort"
        for peer in self._participants(ctx):
            ctx.send(peer, {"type": decision, "transaction": self._transaction})
        ctx.set_timer(self.parameters.decision_dwell, self._transaction_done, ctx)

    def _transaction_done(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive or ctx.current_state not in ("COMMIT", "ABORT"):
            return
        ctx.notify_event("TX_DONE")
        ctx.set_timer(self.parameters.transaction_interval, self._begin_transaction, ctx)

    def _handle_vote(self, ctx: NodeContext, source: str, payload: dict) -> None:
        if int(payload["transaction"]) != self._transaction or self._decided:
            return
        if ctx.current_state != "PREPARE":
            return
        self._votes[source] = bool(payload["yes"])
        if not payload["yes"]:
            self._decide(ctx, commit=False, event="VOTE_NO")
        elif len(self._votes) == len(self._participants(ctx)):
            self._decide(ctx, commit=True, event="ALL_YES")

    # -- participant behaviour ------------------------------------------------------

    def _handle_prepare(self, ctx: NodeContext, source: str, payload: dict) -> None:
        if ctx.current_state != "READY":
            # Still dwelling in COMMITTED/ABORTED; the coordinator's vote
            # timeout converts the missing vote into an abort.
            return
        self._transaction = int(payload["transaction"])
        vote_yes = ctx.random.random() < self.parameters.vote_yes_probability
        if vote_yes:
            ctx.notify_event("VOTE_YES")
            ctx.set_timer(
                self.parameters.decision_timeout,
                self._decision_timeout,
                ctx,
                self._transaction,
            )
        else:
            ctx.notify_event("VOTE_NO")
            ctx.set_timer(self.parameters.decision_dwell, self._next_transaction, ctx)
        ctx.send(source, {"type": "vote", "transaction": self._transaction, "yes": vote_yes})

    def _handle_decision(self, ctx: NodeContext, payload: dict, commit: bool) -> None:
        if ctx.current_state != "VOTED" or int(payload["transaction"]) != self._transaction:
            return
        ctx.notify_event("DECIDE_COMMIT" if commit else "DECIDE_ABORT")
        ctx.set_timer(self.parameters.decision_dwell, self._next_transaction, ctx)

    def _decision_timeout(self, ctx: NodeContext, transaction: int) -> None:
        if self._stopped or not ctx.alive:
            return
        if ctx.current_state != "VOTED" or transaction != self._transaction:
            return
        # Presumed abort: the decision never arrived (coordinator crashed
        # or the decision was lost), so the participant unblocks itself.
        ctx.notify_event("TIMEOUT")
        ctx.set_timer(self.parameters.decision_dwell, self._next_transaction, ctx)

    def _next_transaction(self, ctx: NodeContext) -> None:
        if self._stopped or not ctx.alive:
            return
        if ctx.current_state in ("COMMITTED", "ABORTED"):
            ctx.notify_event("NEXT_TX")

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, ctx: NodeContext, source: str, payload: object) -> None:
        if self._stopped or not isinstance(payload, dict):
            return
        kind = payload.get("type")
        if kind == "prepare":
            self._handle_prepare(ctx, source, payload)
        elif kind == "vote":
            self._handle_vote(ctx, source, payload)
        elif kind == "commit":
            self._handle_decision(ctx, payload, commit=True)
        elif kind == "abort":
            self._handle_decision(ctx, payload, commit=False)

    # -- fault injection --------------------------------------------------------------

    def on_fault(self, ctx: NodeContext, fault_name: str) -> None:
        if ctx.random.random() < self.parameters.fault_crash_probability:
            ctx.set_timer(
                self.parameters.fault_dormancy,
                lambda: ctx.crash(reason=f"fault {fault_name} became an error"),
            )


def build_twophase_study(
    name: str,
    faults_by_machine: dict[str, tuple[FaultDefinition, ...]] | None = None,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    hosts: tuple[str, ...] = ("hosta", "hostb", "hostc"),
    experiments: int = 10,
    parameters: TwoPhaseParameters | None = None,
    experiment_timeout: float | None = None,
    network: NetworkConfig | None = None,
    seed: int = 0,
    weight: float = 1.0,
) -> StudyConfig:
    """Assemble a ready-to-run two-phase-commit study.

    The first machine is the coordinator (``parameters.coordinator`` must
    name one of ``machines`` when parameters are supplied explicitly); the
    default fault is the correlated in-doubt fault (crash the coordinator
    while the first participant has voted and waits for the decision).
    """
    parameters = parameters or TwoPhaseParameters(coordinator=machines[0])
    if parameters.coordinator not in machines:
        raise RuntimeConfigurationError(
            f"two-phase-commit study {name!r}: coordinator "
            f"{parameters.coordinator!r} is not one of the machines {machines}"
        )
    if faults_by_machine is None:
        faults_by_machine = {
            machines[0]: (coordinator_in_doubt_fault(machines[0], machines[1]),)
        }
    nodes = []
    for index, machine in enumerate(machines):
        if machine == parameters.coordinator:
            specification = coordinator_state_machine_spec(machine, machines)
        else:
            specification = participant_state_machine_spec(machine, machines)
        nodes.append(
            NodeDefinition(
                nickname=machine,
                specification=specification,
                faults=FaultSpecification.from_definitions(faults_by_machine.get(machine, ())),
                application_factory=(
                    lambda parameters=parameters: TwoPhaseCommitApplication(parameters)
                ),
                start_host=hosts[index % len(hosts)],
            )
        )
    return StudyConfig(
        name=name,
        hosts=[HostConfig(name=host) for host in hosts],
        nodes=nodes,
        experiments=experiments,
        restart_policy=RestartPolicy(enabled=False),
        experiment_timeout=experiment_timeout or parameters.run_duration + 2.0,
        network=network or NetworkConfig(),
        seed=seed,
        weight=weight,
    )
