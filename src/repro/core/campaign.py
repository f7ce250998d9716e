"""Campaigns, studies, and experiments (Section 2.2.3) and their execution.

The fault-injection process is organized into *campaigns*, each made of
*studies*, each made of repeated *experiments*.  A study fixes the state
machine specifications, fault specifications, node placement, runtime
design, and application arguments; an experiment is one run of the
distributed application with the study's fault injections.

:class:`CampaignRunner` executes campaigns on the simulated substrate: for
every experiment it builds a fresh environment (hosts with their own clocks
and schedulers), runs the pre-experiment synchronization mini-phase, starts
the daemons and the state machines that have a start host, lets the
experiment run to completion (or timeout), runs the post-experiment
synchronization mini-phase, and collects the local timelines and timestamp
records for the analysis phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analysis.clock_sync import SyncTable, select_reference_host
from repro.core.runtime.context import (
    ExperimentContext,
    NodeDefinition,
    RestartPolicy,
    WatchdogConfig,
)
from repro.core.execution import ExecutionConfig, build_executor
from repro.core.runtime.daemons import CentralDaemonProcess, LocalDaemonProcess
from repro.core.runtime.designs import DaemonPlacement, RuntimeDesign
from repro.core.runtime.syncphase import SyncPhaseConfig, run_sync_phase
from repro.core.specs.fault_spec import FaultSpecification
from repro.core.timeline import LocalTimeline
from repro.errors import RuntimeConfigurationError
from repro.sim.clock import ClockParameters
from repro.sim.environment import Environment
from repro.sim.host import SchedulerConfig
from repro.sim.network import IPC_PROFILE, LAN_TCP_PROFILE, LinkProfile
from repro.sim.rng import RandomStreams
from repro.sim.topology import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.store import CampaignStore


@dataclass(frozen=True)
class HostConfig:
    """One host of the experiment testbed.

    ``clock=None`` asks the runner to draw a realistic offset/drift for the
    host from the experiment seed (so that the offline clock
    synchronization has something to estimate); ``scheduler=None`` uses the
    study's default scheduler.
    """

    name: str
    clock: ClockParameters | None = None
    scheduler: SchedulerConfig | None = None


@dataclass(frozen=True)
class ClockGenerationConfig:
    """How random host clocks are drawn when a host does not pin its clock."""

    max_offset: float = 0.005
    max_drift_ppm: float = 100.0
    granularity: float = 0.0


@dataclass
class StudyConfig:
    """One study: fixed specifications, placement, and runtime parameters.

    ``max_events`` is the hard backstop against applications that generate
    unbounded numbers of events inside the experiment timeout; hitting it
    marks the experiment aborted (it is not usable data).  ``execution``
    optionally overrides the campaign's execution backend when the study is
    run on its own (:func:`run_single_study`).
    """

    name: str
    hosts: list[HostConfig]
    nodes: list[NodeDefinition]
    experiments: int = 10
    design: RuntimeDesign = field(default_factory=RuntimeDesign.enhanced)
    experiment_timeout: float = 5.0
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    sync: SyncPhaseConfig = field(default_factory=SyncPhaseConfig)
    default_scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    clock_generation: ClockGenerationConfig = field(default_factory=ClockGenerationConfig)
    ipc_profile: LinkProfile = IPC_PROFILE
    lan_profile: LinkProfile = LAN_TCP_PROFILE
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 0
    weight: float = 1.0
    max_events: int = 5_000_000
    execution: ExecutionConfig | None = None

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise RuntimeConfigurationError(
                f"study {self.name!r} needs a positive event cap (got {self.max_events})"
            )
        if not self.hosts:
            raise RuntimeConfigurationError(f"study {self.name!r} has no hosts")
        if not self.nodes:
            raise RuntimeConfigurationError(f"study {self.name!r} has no nodes")
        nicknames = [node.nickname for node in self.nodes]
        if len(set(nicknames)) != len(nicknames):
            raise RuntimeConfigurationError(
                f"study {self.name!r} has duplicate state machine nicknames: {nicknames}"
            )
        host_names = [host.name for host in self.hosts]
        if len(set(host_names)) != len(host_names):
            raise RuntimeConfigurationError(
                f"study {self.name!r} has duplicate host names: {host_names}"
            )

    @property
    def host_names(self) -> tuple[str, ...]:
        """The study's host names (the paper's machines file)."""
        return tuple(host.name for host in self.hosts)

    def node_definitions(self) -> dict[str, NodeDefinition]:
        """Node definitions keyed by nickname."""
        return {node.nickname: node for node in self.nodes}

    def fault_specifications(self) -> dict[str, FaultSpecification]:
        """Fault specification of every state machine, keyed by nickname."""
        return {node.nickname: node.faults for node in self.nodes}

    def with_experiments(self, experiments: int) -> "StudyConfig":
        """A copy of the study with a different experiment count."""
        return replace(self, experiments=experiments)

    def with_seed(self, seed: int) -> "StudyConfig":
        """A copy of the study with a different master seed."""
        return replace(self, seed=seed)


@dataclass
class CampaignConfig:
    """A campaign: a named collection of studies over one system.

    ``execution`` selects the default execution backend for the campaign's
    experiments (see :mod:`repro.core.execution`); it can be overridden per
    call via ``CampaignRunner.run(execution=...)``.
    """

    name: str
    studies: list[StudyConfig]
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        names = [study.name for study in self.studies]
        if len(set(names)) != len(names):
            raise RuntimeConfigurationError(f"campaign {self.name!r} has duplicate study names")

    def study(self, name: str) -> StudyConfig:
        """Look up a study by name."""
        for study in self.studies:
            if study.name == name:
                return study
        raise RuntimeConfigurationError(f"campaign {self.name!r} has no study named {name!r}")


@dataclass
class ExperimentResult:
    """Everything collected from one experiment run."""

    study: str
    index: int
    seed: int
    local_timelines: dict[str, LocalTimeline]
    sync_messages: SyncTable
    hosts: tuple[str, ...]
    reference_host: str
    host_clock_parameters: dict[str, ClockParameters]
    completed: bool
    aborted: bool
    abort_reason: str | None
    duration: float
    stats: dict[str, int]

    @property
    def machines(self) -> tuple[str, ...]:
        """Nicknames of the machines that produced timelines."""
        return tuple(self.local_timelines)

    def slimmed(self) -> "ExperimentResult":
        """This result without its raw ``local_timelines`` / ``sync_messages``.

        What the pipeline keeps of an experiment once its analysis has
        consumed the raw payload.
        """
        return replace(self, local_timelines={}, sync_messages=SyncTable())


@dataclass
class StudyResult:
    """The experiments of one study."""

    config: StudyConfig
    experiments: list[ExperimentResult] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The study's name."""
        return self.config.name

    def completed_experiments(self) -> list[ExperimentResult]:
        """Experiments that ran to completion (not aborted or timed out)."""
        return [experiment for experiment in self.experiments if experiment.completed]


@dataclass
class CampaignResult:
    """The results of every study of a campaign."""

    config: CampaignConfig
    studies: dict[str, StudyResult] = field(default_factory=dict)

    def study(self, name: str) -> StudyResult:
        """Look up a study's results by name."""
        return self.studies[name]

    def all_experiments(self) -> list[ExperimentResult]:
        """Every experiment of every study."""
        experiments: list[ExperimentResult] = []
        # repro-lint: disable=R003 studies dict is filled in config order, which is stable
        for study in self.studies.values():
            experiments.extend(study.experiments)
        return experiments


class CampaignRunner:
    """Executes campaigns (the runtime phase) on the simulated substrate.

    The runner owns the per-experiment mechanics (environment construction,
    sync mini-phases, daemon spawning, timeline collection) and delegates
    *scheduling* of the experiments — serial or fanned out across a process
    pool — to the execution engine of :mod:`repro.core.execution`.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config

    def run(
        self,
        execution: ExecutionConfig | None = None,
        store: "CampaignStore | None" = None,
    ) -> CampaignResult:
        """Run every experiment of every study of the campaign.

        ``execution`` overrides the campaign's configured backend for this
        call; results are identical for every backend and worker count.
        ``store`` streams completed experiments into a
        :class:`~repro.store.CampaignStore` as they finish and skips
        experiments whose records already exist there (see
        :mod:`repro.store`).
        """
        return build_executor(execution or self.config.execution).run_campaign(
            self.config, runner_class=type(self), store=store
        )

    def run_study(
        self, study: StudyConfig, execution: ExecutionConfig | None = None
    ) -> StudyResult:
        """Run every experiment of one study."""
        chosen = execution or study.execution or self.config.execution
        return build_executor(chosen).run_study(study, runner_class=type(self))

    # -- one experiment ----------------------------------------------------------------

    @classmethod
    def run_experiment_of(cls, study: StudyConfig, index: int) -> ExperimentResult:
        """Run one experiment of ``study`` outside any campaign.

        This is the unit of work the execution engine dispatches to
        workers; it depends only on the study configuration and the
        experiment index, which is what makes experiment-level parallelism
        safe.
        """
        campaign = CampaignConfig(name=f"campaign-{study.name}", studies=[study])
        return cls(campaign).run_experiment(study, index)

    def run_experiment(self, study: StudyConfig, index: int) -> ExperimentResult:
        """Run a single experiment of a study and collect its raw results."""
        seed = self._experiment_seed(study, index)
        environment = Environment(
            seed=seed,
            default_scheduler=study.default_scheduler,
            ipc_profile=study.ipc_profile,
            lan_profile=study.lan_profile,
            network=study.network,
        )
        clock_parameters = self._build_hosts(environment, study, seed)
        reference = select_reference_host(
            {host: clock.rate for host, clock in clock_parameters.items()}
        )

        context = ExperimentContext(
            environment=environment,
            design=study.design,
            node_definitions=study.node_definitions(),
            hosts=study.host_names,
            restart_policy=study.restart_policy,
            watchdog=study.watchdog,
            experiment_timeout=study.experiment_timeout,
        )

        sync_messages = run_sync_phase(environment, reference, study.host_names, study.sync)

        start_time = environment.kernel.now
        # Timer-driven network faults fire at fixed offsets from experiment
        # start (after the pre-experiment sync mini-phase); they mutate the
        # topology without consuming any randomness, so studies without a
        # schedule are bit-identical to pre-topology runs.
        for scheduled in study.network.schedule:
            environment.kernel.schedule(
                scheduled.at, environment.network.apply, scheduled.spec, scheduled.name
            )
        self._spawn_daemons(environment, context)
        environment.spawn(CentralDaemonProcess(context), study.host_names[0])
        self._run_until_complete(environment, context, study)
        duration = environment.kernel.now - start_time

        run_sync_phase(environment, reference, study.host_names, study.sync, sync_messages)

        return ExperimentResult(
            study=study.name,
            index=index,
            seed=seed,
            local_timelines=context.timeline_store.timelines(),
            sync_messages=sync_messages,
            hosts=study.host_names,
            reference_host=reference,
            host_clock_parameters=clock_parameters,
            completed=context.experiment_complete and not context.experiment_aborted,
            aborted=context.experiment_aborted,
            abort_reason=context.abort_reason,
            duration=duration,
            stats=dict(context.stats),
        )

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _experiment_seed(study: StudyConfig, index: int) -> int:
        # Public stream API on purpose: serial and pooled workers both
        # re-derive this value independently, so the seed sequence is part
        # of the library's compatibility contract (pinned by tests).
        return RandomStreams(study.seed).derive(f"experiment:{study.name}:{index}")

    @staticmethod
    def _build_hosts(
        environment: Environment, study: StudyConfig, seed: int
    ) -> dict[str, ClockParameters]:
        clock_rng = RandomStreams(seed).stream("host-clocks")
        generation = study.clock_generation
        parameters: dict[str, ClockParameters] = {}
        for host in study.hosts:
            if host.clock is not None:
                clock = host.clock
            else:
                offset = clock_rng.uniform(-generation.max_offset, generation.max_offset)
                drift = clock_rng.uniform(-generation.max_drift_ppm, generation.max_drift_ppm)
                clock = ClockParameters(
                    offset=offset,
                    rate=1.0 + drift * 1e-6,
                    granularity=generation.granularity,
                )
            parameters[host.name] = clock
            environment.add_host(host.name, clock=clock, scheduler=host.scheduler)
        return parameters

    @staticmethod
    def _spawn_daemons(environment: Environment, context: ExperimentContext) -> None:
        design = context.design
        if design.placement is DaemonPlacement.CENTRALIZED:
            environment.spawn(
                LocalDaemonProcess(context, context.hosts[0]), context.hosts[0]
            )
        elif design.placement is DaemonPlacement.PARTIALLY_DISTRIBUTED:
            for host in context.hosts:
                environment.spawn(LocalDaemonProcess(context, host), host)
        else:
            for nickname in context.node_definitions:
                host = context.daemon_host_for(nickname)
                environment.spawn(
                    LocalDaemonProcess(context, host, served_machine=nickname), host
                )

    @staticmethod
    def _run_until_complete(
        environment: Environment, context: ExperimentContext, study: StudyConfig
    ) -> None:
        # The central daemon's timeout timer guarantees eventual completion,
        # and completion stops the kernel (ExperimentContext.mark_complete);
        # the study's event cap is a backstop against runaway applications
        # that generate unbounded numbers of events within the timeout.
        # Hitting the cap means the run is truncated mid-flight, so it is
        # recorded as aborted rather than returned as (half-run) data.
        kernel = environment.kernel
        before = kernel.events_processed
        kernel.run(max_events=study.max_events)
        processed = kernel.events_processed - before
        if not context.experiment_complete and processed >= study.max_events:
            context.mark_aborted(f"event cap reached ({study.max_events} events)")


def run_campaign(
    config: CampaignConfig,
    execution: ExecutionConfig | None = None,
    store: "CampaignStore | None" = None,
) -> CampaignResult:
    """Convenience wrapper: run a whole campaign with default settings.

    ``store`` makes the run durable and resumable; see :mod:`repro.store`.
    """
    return CampaignRunner(config).run(execution, store=store)


def run_single_study(
    study: StudyConfig, execution: ExecutionConfig | None = None
) -> StudyResult:
    """Convenience wrapper: run one study outside a campaign."""
    return build_executor(execution or study.execution).run_study(study)
