"""Integration tests of the runtime phase: daemons, designs, campaigns."""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.apps.toggle import (
    DRIVER,
    OBSERVER,
    ToggleDriverApplication,
    ToggleObserverApplication,
    build_toggle_study,
)
from repro.core.campaign import CampaignConfig, CampaignRunner, run_single_study
from repro.core.runtime.context import RestartPolicy, WatchdogConfig
from repro.core.runtime.designs import CommunicationMode, DaemonPlacement, RuntimeDesign
from repro.core.specs.state_machine import RESERVED_EVENTS
from repro.core.timeline import RecordKind
from repro.errors import RuntimeConfigurationError
from repro.sim.kernel import SimKernel


def run_toggle(design=None, experiments=1, dwell=0.03, timeslice=0.002, seed=0):
    study = build_toggle_study(
        "toggle", dwell_time=dwell, timeslice=timeslice, cycles=3,
        experiments=experiments, design=design, seed=seed,
    )
    return study, run_single_study(study)


class TestRuntimeDesigns:
    def test_named_designs(self):
        enhanced = RuntimeDesign.enhanced()
        assert enhanced.placement is DaemonPlacement.PARTIALLY_DISTRIBUTED
        assert enhanced.via_daemon
        assert RuntimeDesign.original().communication is CommunicationMode.DIRECT
        assert len(RuntimeDesign.all_designs()) == 6

    def test_daemon_naming(self):
        enhanced = RuntimeDesign.enhanced()
        assert enhanced.daemon_name("hosta") == "lokid@hosta"
        centralized = RuntimeDesign(DaemonPlacement.CENTRALIZED, CommunicationMode.VIA_DAEMON)
        assert centralized.daemon_name("hosta") == centralized.daemon_name("hostb")
        fully = RuntimeDesign(DaemonPlacement.FULLY_DISTRIBUTED, CommunicationMode.VIA_DAEMON)
        assert fully.daemon_name("hosta", "black") == "lokid.black"

    def test_dynamic_capabilities(self):
        assert RuntimeDesign.enhanced().supports_dynamic_nodes
        fully = RuntimeDesign(DaemonPlacement.FULLY_DISTRIBUTED, CommunicationMode.DIRECT)
        assert not fully.supports_dynamic_nodes
        centralized = RuntimeDesign(DaemonPlacement.CENTRALIZED, CommunicationMode.DIRECT)
        assert centralized.supports_dynamic_hosts

    @pytest.mark.parametrize("design", RuntimeDesign.all_designs(),
                             ids=lambda design: design.describe())
    def test_toggle_runs_under_every_design(self, design):
        _, result = run_toggle(design=design)
        experiment = result.experiments[0]
        assert experiment.completed, experiment.abort_reason
        driver_states = [
            record.new_state for record in experiment.local_timelines[DRIVER].state_changes()
        ]
        assert driver_states[0] == "IDLE"
        assert "ACTIVE" in driver_states
        assert driver_states[-1] == "EXIT"
        # The observer received notifications and injected the fault at least once.
        assert len(experiment.local_timelines[OBSERVER].fault_injections()) >= 1


class TestCampaignRunner:
    def test_experiment_results_structure(self):
        study, result = run_toggle(experiments=2)
        assert len(result.experiments) == 2
        experiment = result.experiments[0]
        assert experiment.study == "toggle"
        assert set(experiment.machines) == {DRIVER, OBSERVER}
        assert set(experiment.hosts) == {"hosta", "hostb"}
        assert experiment.reference_host in experiment.hosts
        assert experiment.sync_messages
        assert experiment.stats["registrations"] == 2

    def test_experiments_are_deterministic_for_a_seed(self):
        _, first = run_toggle(experiments=1, seed=5)
        _, second = run_toggle(experiments=1, seed=5)
        a = first.experiments[0].local_timelines[OBSERVER]
        b = second.experiments[0].local_timelines[OBSERVER]
        assert [(r.kind, r.time) for r in a.records] == [(r.kind, r.time) for r in b.records]

    def test_machine_without_start_host_is_not_started(self):
        # Only machines with a start host are started at the beginning; the
        # others may enter later, and completion does not wait for them.
        study = build_toggle_study("toggle", dwell_time=0.03, cycles=3, experiments=1)
        assert study.nodes[1].nickname == OBSERVER
        study.nodes[1] = replace(study.nodes[1], start_host=None)
        experiment = run_single_study(study).experiments[0]
        assert experiment.completed and not experiment.aborted
        assert experiment.stats["registrations"] == 1
        assert list(experiment.local_timelines) == [DRIVER]

    def test_different_experiments_use_different_clocks(self):
        _, result = run_toggle(experiments=2)
        clocks = [experiment.host_clock_parameters["hostb"] for experiment in result.experiments]
        assert clocks[0] != clocks[1]

    def test_sync_messages_flow_in_both_directions(self):
        _, result = run_toggle()
        experiment = result.experiments[0]
        senders = {message.sender for message in experiment.sync_messages}
        receivers = {message.receiver for message in experiment.sync_messages}
        assert experiment.reference_host in senders
        assert experiment.reference_host in receivers

    def test_campaign_of_multiple_studies(self):
        study_a = build_toggle_study("a", dwell_time=0.02, experiments=1)
        study_b = build_toggle_study("b", dwell_time=0.04, experiments=1)
        campaign = CampaignConfig(name="campaign", studies=[study_a, study_b])
        result = CampaignRunner(campaign).run()
        assert set(result.studies) == {"a", "b"}
        assert len(result.all_experiments()) == 2

    def test_duplicate_study_names_rejected(self):
        study = build_toggle_study("same", dwell_time=0.02)
        with pytest.raises(RuntimeConfigurationError):
            CampaignConfig(name="campaign", studies=[study, study])

    def test_timeout_aborts_hung_experiment(self):
        study = build_toggle_study("hung", dwell_time=0.02, cycles=2, experiments=1)
        # An observer that never exits hangs the experiment until the timeout.
        observer_node = study.nodes[1]
        object.__setattr__(observer_node, "application_factory",
                           lambda: ToggleObserverApplication(run_duration=1e6))
        study.experiment_timeout = 0.5
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.aborted
        assert experiment.abort_reason == "experiment timeout"
        assert not experiment.completed

    def test_experiment_is_three_kernel_runs_and_no_steps(self):
        # One run() per phase (pre-sync, experiment, post-sync): completion
        # stops the kernel instead of the campaign stepping it event by event.
        study = build_toggle_study("toggle", dwell_time=0.03, cycles=3, experiments=1)
        watched = {SimKernel.run.__code__: "run", SimKernel.step.__code__: "step"}
        entered = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                entered[watched[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            experiment = CampaignRunner.run_experiment_of(study, 0)
        finally:
            sys.setprofile(None)
        assert experiment.completed
        assert entered == Counter(run=3)

    def test_timeline_header_includes_reserved_names(self):
        _, result = run_toggle()
        timeline = result.experiments[0].local_timelines[DRIVER]
        assert RESERVED_EVENTS.issubset(set(timeline.events))
        assert "CRASH" in timeline.global_states


class TestCrashAndRestart:
    def build_crashing_study(self, restart_policy, watchdog=None, seed=3):
        """A driver that crashes mid-run instead of cycling."""
        from repro.core.runtime.application import LokiApplication

        class CrashingDriver(ToggleDriverApplication):
            def on_start(self, ctx):
                if ctx.is_restart:
                    ctx.notify_event("IDLE")
                    ctx.set_timer(0.05, lambda: ctx.exit())
                    return
                ctx.notify_event("IDLE")
                ctx.set_timer(0.05, lambda: ctx.crash(reason="test crash"))

            def on_restart(self, ctx):
                self.on_start(ctx)

        study = build_toggle_study("crashing", dwell_time=0.02, cycles=2,
                                   experiments=1, seed=seed)
        object.__setattr__(study.nodes[0], "application_factory", CrashingDriver)
        object.__setattr__(study.nodes[1], "application_factory",
                           lambda: ToggleObserverApplication(run_duration=0.4))
        study.restart_policy = restart_policy
        if watchdog is not None:
            study.watchdog = watchdog
        return study

    def test_crash_recorded_and_experiment_completes(self):
        study = self.build_crashing_study(RestartPolicy(enabled=False))
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.completed
        timeline = experiment.local_timelines[DRIVER]
        assert timeline.final_state() == "CRASH"
        crash_records = [r for r in timeline.state_changes() if r.new_state == "CRASH"]
        assert len(crash_records) == 1

    def test_restart_on_next_host(self):
        policy = RestartPolicy(enabled=True, delay=0.02, max_restarts=1, restart_host="next")
        study = self.build_crashing_study(policy)
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.completed
        timeline = experiment.local_timelines[DRIVER]
        assert experiment.stats.get("nodes_restarted", 0) == 1
        # The timeline shows records from two different hosts.
        assert len(set(timeline.hosts())) == 2
        assert any("RESTART" in note for note in timeline.notes)

    def test_restart_success_probability_zero_means_no_restart(self):
        policy = RestartPolicy(enabled=True, delay=0.02, max_restarts=1,
                               success_probability=0.0)
        study = self.build_crashing_study(policy)
        result = run_single_study(study)
        assert result.experiments[0].stats.get("nodes_restarted", 0) == 0

    def test_restart_host_validation(self):
        policy = RestartPolicy(enabled=True, restart_host="unknown-host")
        with pytest.raises(RuntimeConfigurationError):
            policy.choose_host("hosta", ("hosta", "hostb"))

    def test_restart_host_choices(self):
        hosts = ("hosta", "hostb", "hostc")
        assert RestartPolicy(restart_host="same").choose_host("hostb", hosts) == "hostb"
        assert RestartPolicy(restart_host="next").choose_host("hostb", hosts) == "hostc"
        assert RestartPolicy(restart_host="next").choose_host("hostc", hosts) == "hosta"
        assert RestartPolicy(restart_host="hosta").choose_host("hostc", hosts) == "hosta"
