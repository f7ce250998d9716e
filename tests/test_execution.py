"""Tests of the campaign execution engine and the seed-derivation contract."""

import pytest

from repro.apps.toggle import build_toggle_study
from repro.core.campaign import (
    CampaignConfig,
    CampaignRunner,
    run_campaign,
    run_single_study,
)
from repro.scenarios import DEFAULT_REGISTRY
from repro.core.execution import (
    DISTRIBUTED,
    PROCESS_POOL,
    SERIAL,
    ExecutionConfig,
    SerialExecutor,
    available_backends,
    build_executor,
    run_and_analyze_experiment,
)
from repro.dist import ParallelExecutor
from repro.errors import RuntimeConfigurationError
from repro.measures import MeasureStep, StateTuple, StudyMeasure, TotalDuration
from repro.pipeline import run_and_analyze
from repro.sim.rng import RandomStreams

needs_pool = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="process-pool backend needs the fork start method",
)


def build_campaign(experiments: int = 3) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=11,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=22,
    )
    return CampaignConfig(name="engine-test", studies=[study_a, study_b])


# ---------------------------------------------------------------------------
# Seed derivation: the public API and its pinned sequence
# ---------------------------------------------------------------------------


class TestSeedDerivation:
    #: Frozen values of RandomStreams(0).derive("experiment:toggle:i").
    #: These pin the seed-derivation contract: the process-pool backend
    #: re-derives each experiment's seed in the worker, so the sequence
    #: must never change between library versions (or between backends).
    PINNED_SEQUENCE = (
        13078646609861432629,
        6009498735873911444,
        14558700756124061471,
        2401916815302495391,
    )

    def test_pinned_seed_sequence(self):
        streams = RandomStreams(0)
        derived = tuple(streams.derive(f"experiment:toggle:{i}") for i in range(4))
        assert derived == self.PINNED_SEQUENCE

    def test_runner_uses_public_derivation(self):
        study = build_toggle_study("study", dwell_time=0.02, experiments=1, seed=7)
        seed = CampaignRunner._experiment_seed(study, 0)
        assert seed == RandomStreams(7).derive("experiment:study:0")
        assert seed == 6224796762065466819

    def test_experiment_results_carry_derived_seeds(self):
        campaign = build_campaign(experiments=2)
        result = run_campaign(campaign)
        for study in campaign.studies:
            expected = [
                RandomStreams(study.seed).derive(f"experiment:{study.name}:{i}")
                for i in range(study.experiments)
            ]
            actual = [e.seed for e in result.studies[study.name].experiments]
            assert actual == expected


# ---------------------------------------------------------------------------
# ExecutionConfig validation
# ---------------------------------------------------------------------------


class TestExecutionConfig:
    def test_defaults_to_serial(self):
        config = ExecutionConfig()
        assert config.backend == SERIAL
        assert isinstance(build_executor(None), SerialExecutor)
        assert isinstance(build_executor(config), SerialExecutor)

    def test_process_pool_constructor(self):
        config = ExecutionConfig.process_pool(workers=3, chunk_size=2)
        assert config.backend == PROCESS_POOL
        assert config.resolved_workers() == 3
        assert type(build_executor(config)) is ParallelExecutor

    def test_both_parallel_names_build_the_same_executor_class(self):
        pool = build_executor(ExecutionConfig.process_pool(workers=2))
        distributed = build_executor(ExecutionConfig.distributed(workers=2))
        assert type(pool) is type(distributed) is ParallelExecutor
        assert (pool.config.backend, distributed.config.backend) == (PROCESS_POOL, DISTRIBUTED)

    def test_unknown_backend_rejected(self):
        with pytest.raises(RuntimeConfigurationError):
            ExecutionConfig(backend="gpu")

    def test_invalid_workers_rejected(self):
        with pytest.raises(RuntimeConfigurationError):
            ExecutionConfig(workers=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(RuntimeConfigurationError):
            ExecutionConfig(chunk_size=0)

    def test_serial_backend_is_always_available(self):
        assert SERIAL in available_backends()

    def test_default_chunk_size_uses_heuristic(self):
        config = ExecutionConfig()
        assert config.chunk_size is None
        # max(1, tasks // (4 * workers)): four waves of chunks per worker.
        assert config.resolved_chunk_size(1000, 4) == 62
        assert config.resolved_chunk_size(200, 4) == 12
        assert config.resolved_chunk_size(16, 4) == 1

    def test_small_campaigns_keep_chunk_size_one(self):
        config = ExecutionConfig()
        assert config.resolved_chunk_size(1, 8) == 1
        assert config.resolved_chunk_size(0, 8) == 1

    def test_explicit_chunk_size_honored(self):
        config = ExecutionConfig(chunk_size=7)
        assert config.resolved_chunk_size(1000, 4) == 7
        assert config.resolved_chunk_size(2, 4) == 7


# ---------------------------------------------------------------------------
# Serial / process-pool equivalence
# ---------------------------------------------------------------------------


def seeds_of(analysis):
    return {
        name: [e.result.seed for e in study.experiments]
        for name, study in analysis.studies.items()
    }


def measure_values_of(analysis):
    measure = StudyMeasure(
        name="driver-active",
        steps=(MeasureStep(StateTuple("driver", "ACTIVE"), TotalDuration("T")),),
    )
    return {name: study.measure_values(measure) for name, study in analysis.studies.items()}


@needs_pool
class TestBackendEquivalence:
    def test_campaign_results_identical(self):
        campaign = build_campaign()
        serial = run_campaign(campaign, ExecutionConfig.serial())
        pooled = run_campaign(campaign, ExecutionConfig.process_pool(workers=2))
        for study in campaign.studies:
            serial_experiments = serial.studies[study.name].experiments
            pooled_experiments = pooled.studies[study.name].experiments
            assert [e.seed for e in serial_experiments] == [e.seed for e in pooled_experiments]
            assert [e.completed for e in serial_experiments] == [
                e.completed for e in pooled_experiments
            ]
            for left, right in zip(serial_experiments, pooled_experiments):
                left_records = [
                    (r.kind, r.time) for r in left.local_timelines["observer"].records
                ]
                right_records = [
                    (r.kind, r.time) for r in right.local_timelines["observer"].records
                ]
                assert left_records == right_records

    def test_fused_analysis_identical(self):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        assert seeds_of(serial) == seeds_of(pooled)
        assert serial.acceptance_summary() == pooled.acceptance_summary()
        assert measure_values_of(serial) == measure_values_of(pooled)

    def test_chunked_execution_identical(self):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(
            campaign, ExecutionConfig.process_pool(workers=2, chunk_size=3)
        )
        assert seeds_of(serial) == seeds_of(pooled)
        assert serial.acceptance_summary() == pooled.acceptance_summary()

    def test_pool_slims_raw_payloads_by_default(self):
        campaign = build_campaign(experiments=1)
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        experiment = pooled.study("alpha").experiments[0]
        assert experiment.result.local_timelines == {}
        assert experiment.result.sync_messages == []
        # The analyzed artifacts survive the slimming.
        assert experiment.global_timeline.entries
        assert experiment.clock_bounds

    def test_keep_raw_results_preserves_payloads(self):
        campaign = build_campaign(experiments=1)
        pooled = run_and_analyze(
            campaign, ExecutionConfig.process_pool(workers=2, keep_raw_results=True)
        )
        experiment = pooled.study("alpha").experiments[0]
        assert set(experiment.result.local_timelines) == {"driver", "observer"}
        assert experiment.result.sync_messages


# ---------------------------------------------------------------------------
# Registry-driven smoke test: every scenario, every backend
# ---------------------------------------------------------------------------


def analyzed_fingerprint(analysis, scenario):
    """Everything the analysis phase derives for one study, comparably."""
    study = next(iter(analysis.studies.values()))
    fingerprint = {
        "seeds": [e.result.seed for e in study.experiments],
        "completed": [e.result.completed for e in study.experiments],
        "accepted": [e.accepted for e in study.experiments],
        "verdicts": [
            [(v.fault, v.machine, v.correct) for v in e.verification.verdicts]
            for e in study.experiments
        ],
        "timeline_sizes": [len(e.global_timeline.entries) for e in study.experiments],
    }
    if scenario.measure_factory is not None:
        fingerprint["measure"] = study.measure_values(scenario.measure_factory())
    return fingerprint


@pytest.mark.parametrize("scenario_name", DEFAULT_REGISTRY.names())
class TestScenarioRegistrySmoke:
    """Every registered scenario builds, runs, and analyzes on every backend."""

    EXPERIMENTS = 2
    SEED = 17

    def campaign_for(self, scenario_name):
        study = DEFAULT_REGISTRY.build(
            scenario_name, experiments=self.EXPERIMENTS, seed=self.SEED
        )
        return CampaignConfig(name=f"smoke-{scenario_name}", studies=[study])

    def test_scenario_runs_end_to_end_serial(self, scenario_name):
        scenario = DEFAULT_REGISTRY.get(scenario_name)
        analysis = run_and_analyze(self.campaign_for(scenario_name), ExecutionConfig.serial())
        study = next(iter(analysis.studies.values()))
        assert len(study.experiments) == self.EXPERIMENTS
        assert all(e.global_timeline.entries for e in study.experiments)
        assert all(e.clock_bounds for e in study.experiments)
        if scenario.measure_factory is not None:
            assert len(study.measure_values(scenario.measure_factory())) == len(
                study.accepted()
            )

    @needs_pool
    def test_scenario_serial_and_pool_results_identical(self, scenario_name):
        scenario = DEFAULT_REGISTRY.get(scenario_name)
        campaign = self.campaign_for(scenario_name)
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        assert analyzed_fingerprint(serial, scenario) == analyzed_fingerprint(
            pooled, scenario
        )


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------


class TestEnginePlumbing:
    def test_run_and_analyze_experiment_matches_campaign_path(self):
        campaign = build_campaign(experiments=1)
        study = campaign.studies[0]
        direct = run_and_analyze_experiment(study, 0)
        via_engine = run_and_analyze(campaign, ExecutionConfig.serial())
        engine_experiment = via_engine.study(study.name).experiments[0]
        assert direct.result.seed == engine_experiment.result.seed
        assert direct.accepted == engine_experiment.accepted

    def test_progress_callback_streams_per_study(self):
        campaign = build_campaign(experiments=2)
        events = []
        config = ExecutionConfig(progress=lambda name, done, total: events.append((name, done, total)))
        run_campaign(campaign, config)
        assert events.count(("alpha", 2, 2)) == 1
        assert events.count(("beta", 2, 2)) == 1
        assert len(events) == 4

    def test_study_execution_override_used_by_run_single_study(self):
        study = build_toggle_study(
            "override", dwell_time=0.02, cycles=3, experiments=1, seed=3,
        )
        study.execution = ExecutionConfig.serial()
        result = run_single_study(study)
        assert len(result.experiments) == 1

    def test_run_experiment_of_is_standalone(self):
        study = build_toggle_study("solo", dwell_time=0.02, cycles=3, experiments=1, seed=5)
        experiment = CampaignRunner.run_experiment_of(study, 0)
        assert experiment.seed == RandomStreams(5).derive("experiment:solo:0")
        assert experiment.index == 0

    def test_subclass_run_experiment_override_is_dispatched(self):
        calls = []

        class InstrumentedRunner(CampaignRunner):
            def run_experiment(self, study, index):
                calls.append((study.name, index))
                return super().run_experiment(study, index)

        campaign = build_campaign(experiments=1)
        result = InstrumentedRunner(campaign).run()
        assert sorted(calls) == [("alpha", 0), ("beta", 0)]
        assert set(result.studies) == {"alpha", "beta"}


# ---------------------------------------------------------------------------
# Event-cap backstop
# ---------------------------------------------------------------------------


class TestEventCap:
    def test_event_cap_marks_experiment_aborted(self):
        study = build_toggle_study("capped", dwell_time=0.02, cycles=3,
                                   experiments=1, seed=1)
        study.max_events = 50
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.aborted
        assert experiment.abort_reason == "event cap reached (50 events)"
        assert not experiment.completed

    def test_default_cap_does_not_trigger(self):
        study = build_toggle_study("uncapped", dwell_time=0.02, cycles=3,
                                   experiments=1, seed=1)
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.completed
        assert experiment.abort_reason is None

    def test_nonpositive_cap_rejected(self):
        from dataclasses import replace

        study = build_toggle_study("bad", dwell_time=0.02, experiments=1)
        with pytest.raises(RuntimeConfigurationError):
            replace(study, max_events=0)


# ---------------------------------------------------------------------------
# An experiment that raises (not dies): one contract on every backend
# ---------------------------------------------------------------------------


class RaisingRunner(CampaignRunner):
    """Raises at alpha:1 — a bug in the experiment, not a dead worker."""

    @classmethod
    def run_experiment_of(cls, study, index):
        if study.name == "alpha" and index == 1:
            raise ValueError("boom")
        return super().run_experiment_of(study, index)


@pytest.mark.parametrize(
    "backend",
    [
        SERIAL,
        pytest.param(PROCESS_POOL, marks=needs_pool),
    ],
)
def test_raising_experiment_surfaces_with_its_own_type(backend):
    config = ExecutionConfig(backend=backend, workers=2, chunk_size=1)
    with pytest.raises(ValueError, match="boom") as info:
        build_executor(config).run_and_analyze(build_campaign(), runner_class=RaisingRunner)
    if backend != SERIAL:
        # The parallel engine says where it happened; retries are for
        # dead workers, so the fleet stops instead of re-running the bug.
        notes = "\n".join(info.value.__notes__)
        assert "alpha:1" in notes and "on worker" in notes
        assert "RaisingRunner" in notes or "run_experiment_of" in notes


class UnpicklableRunner(CampaignRunner):
    @classmethod
    def run_experiment_of(cls, study, index):
        raise ValueError("boom", lambda: None)  # a lambda cannot cross the pipe


@needs_pool
def test_unpicklable_experiment_error_falls_back_to_runtime_phase_error():
    from repro.errors import RuntimePhaseError

    config = ExecutionConfig.process_pool(workers=1)
    with pytest.raises(RuntimePhaseError, match="alpha:0 on worker 0") as info:
        build_executor(config).run_and_analyze(
            build_campaign(experiments=1), runner_class=UnpicklableRunner
        )
    assert "ValueError" in str(info.value)  # the worker's traceback, as text
