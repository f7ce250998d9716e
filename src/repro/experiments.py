"""Experiment harnesses that regenerate the paper's figures and evaluations.

Each function here reproduces one quantitative artifact of the paper on the
simulated substrate and returns plain data structures; the benchmark suite
(``benchmarks/``) and the example scripts (``examples/``) are thin wrappers
that print them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Mapping, Sequence

from repro.apps.election import (
    DEFAULT_MACHINES,
    ElectionParameters,
    build_election_study,
    correlated_follower_fault,
    coverage_study_measure,
    leader_fault,
    uncorrelated_follower_fault,
)
from repro.apps.toggle import build_toggle_study
from repro.core.campaign import run_single_study
from repro.core.execution import ExecutionConfig
from repro.core.runtime.context import RestartPolicy
from repro.core.runtime.designs import RuntimeDesign
from repro.measures import (
    MeasureStep,
    StateTuple,
    StratifiedWeightedMeasure,
    StudyMeasure,
    TotalDuration,
    UserObservation,
    value_positive,
)
from repro.pipeline import analyze_study, correct_injection_fraction
from repro.scenarios import ScenarioRegistry, default_registry

ELECTION_MACHINES = DEFAULT_MACHINES


# ---------------------------------------------------------------------------
# Cross-scenario campaign comparison (the scenario registry as a workload set)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioComparisonRow:
    """One scenario's row of the cross-scenario campaign comparison."""

    scenario: str
    experiments: int
    accepted: int
    injections: int
    correct_fraction: float | None
    measure_name: str | None
    measure_mean: float | None


def scenario_comparison(
    names: Sequence[str] | None = None,
    experiments: int = 3,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
    registry: ScenarioRegistry | None = None,
) -> list[ScenarioComparisonRow]:
    """Run every (selected) registered scenario and compare the campaigns.

    For each scenario the row reports how many experiments survived the
    analysis phase, the injection count and correct-injection fraction,
    and the mean of the scenario's own study measure over the accepted
    experiments.  ``names=None`` enumerates the whole registry; each
    scenario gets ``seed + position`` so the studies stay decorrelated.
    """
    registry = registry or default_registry()
    rows: list[ScenarioComparisonRow] = []
    for offset, name in enumerate(names if names is not None else registry.names()):
        scenario = registry.get(name)
        study = scenario.build(experiments=experiments, seed=seed + offset)
        analysis = analyze_study(run_single_study(study, execution))
        injections = sum(len(e.verification.verdicts) for e in analysis.experiments)
        measure_name: str | None = None
        measure_mean: float | None = None
        if scenario.measure_factory is not None:
            measure = scenario.measure_factory()
            measure_name = measure.name
            values = [v for v in analysis.measure_values(measure) if v is not None]
            if values:
                measure_mean = sum(values) / len(values)
        rows.append(
            ScenarioComparisonRow(
                scenario=name,
                experiments=len(analysis.experiments),
                accepted=len(analysis.accepted()),
                injections=injections,
                correct_fraction=correct_injection_fraction(analysis.experiments),
                measure_name=measure_name,
                measure_mean=measure_mean,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 3.2 and 3.3: correct-injection probability vs time spent in a state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjectionProbabilityPoint:
    """One point of Figure 3.2/3.3."""

    dwell_time: float
    timeslice: float
    injections: int
    correct: int

    @property
    def probability(self) -> float | None:
        """Fraction of injections performed in the intended global state.

        ``None`` when the point's experiments produced no injections at
        all (undefined — same convention as
        :func:`repro.pipeline.correct_injection_fraction`).
        """
        if self.injections == 0:
            return None
        return self.correct / self.injections


def injection_probability_sweep(
    timeslice: float,
    dwell_times: Sequence[float],
    experiments: int = 3,
    cycles: int = 8,
    design: RuntimeDesign | None = None,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[InjectionProbabilityPoint]:
    """Sweep the time spent in the triggering state (Figures 3.2 / 3.3).

    ``execution`` selects the campaign execution backend (serial by
    default); the points are identical for every backend.
    """
    points: list[InjectionProbabilityPoint] = []
    for index, dwell in enumerate(dwell_times):
        study = build_toggle_study(
            name=f"dwell-{dwell * 1000:.1f}ms",
            dwell_time=dwell,
            timeslice=timeslice,
            cycles=cycles,
            experiments=experiments,
            design=design,
            seed=seed + index,
        )
        analysis = analyze_study(run_single_study(study, execution))
        injections = sum(len(e.verification.verdicts) for e in analysis.experiments)
        correct = sum(
            sum(1 for verdict in e.verification.verdicts if verdict.correct)
            for e in analysis.experiments
        )
        points.append(
            InjectionProbabilityPoint(
                dwell_time=dwell, timeslice=timeslice, injections=injections, correct=correct
            )
        )
    return points


# ---------------------------------------------------------------------------
# Section 3.4: design-choice comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignComparisonRow:
    """One row of the Section 3.4 design comparison."""

    design: str
    correct_fraction: float | None
    notification_messages: int
    daemon_forwards: int
    connection_setups: int
    mean_experiment_duration: float


def design_comparison(
    dwell_time: float = 0.020,
    timeslice: float = 0.005,
    experiments: int = 2,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[DesignComparisonRow]:
    """Run the same workload under every runtime design of Section 3.4.

    ``correct_fraction`` is ``None`` for a design whose runs produced no
    injections at all (undefined, as opposed to all-wrong).
    """
    rows: list[DesignComparisonRow] = []
    for design in RuntimeDesign.all_designs():
        study = build_toggle_study(
            name=f"design-{design.describe()}",
            dwell_time=dwell_time,
            timeslice=timeslice,
            cycles=6,
            experiments=experiments,
            design=design,
            seed=seed,
        )
        result = run_single_study(study, execution)
        analysis = analyze_study(result)
        stats_total: dict[str, int] = {}
        duration_total = 0.0
        for experiment in result.experiments:
            duration_total += experiment.duration
            for key, value in experiment.stats.items():
                stats_total[key] = stats_total.get(key, 0) + value
        rows.append(
            DesignComparisonRow(
                design=design.describe(),
                correct_fraction=correct_injection_fraction(analysis.experiments),
                notification_messages=stats_total.get("notifications_delivered", 0)
                + stats_total.get("notifications_routed", 0),
                daemon_forwards=stats_total.get("daemon_forwards", 0),
                connection_setups=stats_total.get("connection_setups", 0),
                mean_experiment_duration=duration_total / max(len(result.experiments), 1),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Section 2.5: clock-synchronization bound tightness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockSyncQuality:
    """Bound widths achieved for one sync-message budget."""

    messages_per_phase: int
    mean_alpha_width: float
    mean_beta_width: float
    mean_event_uncertainty: float


def clock_sync_quality(
    message_counts: Sequence[int] = (5, 10, 25, 50),
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[ClockSyncQuality]:
    """How sync-message volume drives the guaranteed bound widths."""
    from repro.core.runtime.syncphase import SyncPhaseConfig

    results: list[ClockSyncQuality] = []
    for count in message_counts:
        study = build_toggle_study(
            name=f"sync-{count}",
            dwell_time=0.02,
            timeslice=0.005,
            cycles=4,
            experiments=2,
            seed=seed,
        )
        study.sync = SyncPhaseConfig(messages_per_phase=count)
        analysis = analyze_study(run_single_study(study, execution))
        alpha_widths: list[float] = []
        beta_widths: list[float] = []
        uncertainties: list[float] = []
        for experiment in analysis.experiments:
            for host, bounds in experiment.clock_bounds.items():
                if host == experiment.result.reference_host:
                    continue
                alpha_widths.append(bounds.alpha_width)
                beta_widths.append(bounds.beta_width)
            timeline = experiment.global_timeline
            uncertainties.extend(map(sub, timeline.upper, timeline.lower))
        results.append(
            ClockSyncQuality(
                messages_per_phase=count,
                mean_alpha_width=sum(alpha_widths) / len(alpha_widths),
                mean_beta_width=sum(beta_widths) / len(beta_widths),
                mean_event_uncertainty=sum(uncertainties) / len(uncertainties),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Chapter 5: coverage and error-correlation evaluations
# ---------------------------------------------------------------------------

def crash_indicator_measure(machine: str, conditioned_on: str | None = None) -> StudyMeasure:
    """Study measures of the Section 5.8 correlation evaluation.

    Without ``conditioned_on`` this is the study-5 measure (did ``machine``
    crash); with it, the study-4 measure (given that ``conditioned_on``
    crashed, did ``machine`` also crash).
    """
    indicator = UserObservation(
        lambda timeline: 1.0 if timeline.true_duration() > 0 else 0.0,
        name="total_duration(T) > 0",
    )
    if conditioned_on is None:
        return StudyMeasure(
            name=f"{machine}-crashed",
            steps=(MeasureStep(StateTuple(machine, "CRASH"), indicator),),
        )
    return StudyMeasure(
        name=f"{machine}-crashed-given-{conditioned_on}-crashed",
        steps=(
            MeasureStep(StateTuple(conditioned_on, "CRASH"), TotalDuration("T")),
            MeasureStep(StateTuple(machine, "CRASH"), indicator, value_positive()),
        ),
    )


def _leader_election_parameters(
    leader: str, crash_probability: float = 1.0, correlated: float | None = None
) -> dict[str, ElectionParameters]:
    return {
        machine: ElectionParameters(
            run_duration=0.5,
            favored=(machine == leader),
            fault_crash_probability=1.0 if machine == leader else crash_probability,
            correlated_crash_probability=None if machine == leader else correlated,
        )
        for machine in ELECTION_MACHINES
    }


@dataclass
class CoverageEvaluation:
    """The Chapter 5 coverage evaluation: per-study coverage and the overall value."""

    per_study_coverage: dict[str, float]
    per_study_accepted: dict[str, tuple[int, int]]
    overall_coverage: float
    recovery_probability: float


def chapter5_coverage_evaluation(
    experiments: int = 8,
    recovery_probability: float = 0.7,
    fault_occurrence_weights: Mapping[str, float] | None = None,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> CoverageEvaluation:
    """Studies 1-3 of Chapter 5 plus the stratified-weighted overall coverage."""
    weights = dict(fault_occurrence_weights or {"black": 3.0, "yellow": 2.0, "green": 1.0})
    study_values: dict[str, list[float | None]] = {}
    per_study_coverage: dict[str, float] = {}
    per_study_accepted: dict[str, tuple[int, int]] = {}
    for index, machine in enumerate(ELECTION_MACHINES):
        study = build_election_study(
            name=f"study{index + 1}",
            faults_by_machine={machine: (leader_fault(machine),)},
            experiments=experiments,
            parameters_by_machine=_leader_election_parameters(leader=machine),
            restart_policy=RestartPolicy(
                enabled=True,
                delay=0.04,
                max_restarts=1,
                restart_host="next",
                success_probability=recovery_probability,
            ),
            experiment_timeout=4.0,
            seed=seed + index,
        )
        analysis = analyze_study(run_single_study(study, execution))
        values = analysis.measure_values(coverage_study_measure(machine))
        kept = [value for value in values if value is not None]
        study_values[study.name] = values
        per_study_coverage[study.name] = sum(kept) / len(kept) if kept else 0.0
        per_study_accepted[study.name] = (len(analysis.accepted()), len(analysis.experiments))
        weights[study.name] = weights.pop(machine, 1.0)
    overall = StratifiedWeightedMeasure("overall-coverage", weights).estimate(study_values)
    return CoverageEvaluation(
        per_study_coverage=per_study_coverage,
        per_study_accepted=per_study_accepted,
        overall_coverage=overall.value,
        recovery_probability=recovery_probability,
    )


@dataclass
class CorrelationEvaluation:
    """The Chapter 5 correlation evaluation (studies 4 and 5)."""

    correlated_error_fraction: float
    uncorrelated_error_fraction: float
    configured_correlated_probability: float
    configured_uncorrelated_probability: float
    accepted: dict[str, tuple[int, int]]


def chapter5_correlation_evaluation(
    experiments: int = 10,
    correlated_probability: float = 0.8,
    uncorrelated_probability: float = 0.25,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> CorrelationEvaluation:
    """Studies 4 and 5: error correlation between leader crash and follower faults."""
    # Study 4: bfault1 crashes the leader, gfault2 is injected into the
    # follower at the moment it learns of the crash.
    study4 = build_election_study(
        name="study4",
        faults_by_machine={
            "black": (leader_fault("black"),),
            "green": (correlated_follower_fault("black", "green"),),
        },
        experiments=experiments,
        parameters_by_machine=_leader_election_parameters(
            leader="black",
            crash_probability=uncorrelated_probability,
            correlated=correlated_probability,
        ),
        restart_policy=RestartPolicy(enabled=False),
        experiment_timeout=4.0,
        seed=seed,
    )
    analysis4 = analyze_study(run_single_study(study4, execution))
    values4 = [
        value
        for value in analysis4.measure_values(crash_indicator_measure("green", "black"))
        if value is not None
    ]

    # Study 5: only gfault3 is injected (no leader crash involved).
    study5 = build_election_study(
        name="study5",
        faults_by_machine={"green": (uncorrelated_follower_fault("green"),)},
        experiments=experiments,
        parameters_by_machine=_leader_election_parameters(
            leader="black", crash_probability=uncorrelated_probability
        ),
        restart_policy=RestartPolicy(enabled=False),
        experiment_timeout=4.0,
        seed=seed + 1,
    )
    analysis5 = analyze_study(run_single_study(study5, execution))
    values5 = [
        value
        for value in analysis5.measure_values(crash_indicator_measure("green"))
        if value is not None
    ]

    return CorrelationEvaluation(
        correlated_error_fraction=sum(values4) / len(values4) if values4 else 0.0,
        uncorrelated_error_fraction=sum(values5) / len(values5) if values5 else 0.0,
        configured_correlated_probability=correlated_probability,
        configured_uncorrelated_probability=uncorrelated_probability,
        accepted={
            "study4": (len(analysis4.accepted()), len(analysis4.experiments)),
            "study5": (len(analysis5.accepted()), len(analysis5.experiments)),
        },
    )
