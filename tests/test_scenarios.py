"""Tests of the scenario registry and the two new fault-injection apps."""

from pathlib import Path

import pytest

from repro.apps.tokenring import (
    TokenRingParameters,
    build_tokenring_study,
    correlated_holder_crash_fault,
    holder_crash_fault,
    ring_state_machine_spec,
    token_loss_fault,
)
from repro.apps.twophase import (
    TwoPhaseParameters,
    build_twophase_study,
    coordinator_in_doubt_fault,
    coordinator_state_machine_spec,
    participant_state_machine_spec,
    participant_voted_fault,
)
from repro.core.campaign import StudyConfig, run_single_study
from repro.core.expression import StateAtom
from repro.core.specs.fault_spec import FaultDefinition, FaultTrigger
from repro.errors import ReproError, SpecificationError, UnknownScenarioError
from repro.experiments import scenario_comparison
from repro.pipeline import analyze_study
from repro.scenarios import (
    DEFAULT_REGISTRY,
    Scenario,
    ScenarioRegistry,
    build_default_registry,
    default_registry,
)

README = Path(__file__).resolve().parent.parent / "README.md"


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------


class TestScenarioRegistry:
    def test_default_registry_has_at_least_five_scenarios(self):
        assert len(DEFAULT_REGISTRY) >= 5
        assert len(DEFAULT_REGISTRY.names()) == len(DEFAULT_REGISTRY)

    def test_default_registry_contains_old_and_new_applications(self):
        names = DEFAULT_REGISTRY.names()
        for expected in (
            "toggle",
            "leader-election",
            "primary-backup",
            "two-phase-commit",
            "token-ring",
        ):
            assert expected in names

    def test_get_unknown_name_raises_listing_known_scenarios(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            DEFAULT_REGISTRY.get("no-such-scenario")
        message = str(excinfo.value)
        assert "no-such-scenario" in message
        for name in DEFAULT_REGISTRY.names():
            assert name in message
        # The whole repro error family, never a bare KeyError.
        assert isinstance(excinfo.value, ReproError)
        assert not isinstance(excinfo.value, KeyError)

    def test_get_unknown_name_on_empty_registry(self):
        with pytest.raises(UnknownScenarioError, match="<none>"):
            ScenarioRegistry().get("anything")

    def test_contains_len_iter(self):
        registry = default_registry()
        assert "toggle" in registry
        assert "nope" not in registry
        assert [scenario.name for scenario in registry] == list(registry.names())

    def test_duplicate_registration_rejected(self):
        registry = build_default_registry()
        with pytest.raises(SpecificationError):
            registry.register(registry.get("toggle"))

    def test_build_overrides_experiments_seed_and_name(self):
        study = DEFAULT_REGISTRY.build(
            "token-ring", experiments=3, seed=99, study_name="renamed"
        )
        assert isinstance(study, StudyConfig)
        assert study.experiments == 3
        assert study.seed == 99
        assert study.name == "renamed"

    def test_build_campaign_over_subset(self):
        campaign = DEFAULT_REGISTRY.build_campaign(
            names=("toggle", "two-phase-commit"), experiments=2, seed=5
        )
        assert [study.name for study in campaign.studies] == [
            "toggle",
            "two-phase-commit",
        ]
        # Position-offset seeds keep the studies decorrelated.
        assert [study.seed for study in campaign.studies] == [5, 6]
        assert all(study.experiments == 2 for study in campaign.studies)

    def test_build_campaign_defaults_to_whole_registry(self):
        campaign = DEFAULT_REGISTRY.build_campaign(experiments=1)
        assert len(campaign.studies) == len(DEFAULT_REGISTRY)

    def test_scenario_metadata_derives_from_built_studies(self):
        scenario = DEFAULT_REGISTRY.get("two-phase-commit")
        assert scenario.fault_lines() == (
            "cfault2 ((coordinator:PREPARE) & (part1:VOTED)) once",
        )
        assert scenario.measure_names() == ("committed-transactions",)

    def test_markdown_table_lists_every_scenario(self):
        table = DEFAULT_REGISTRY.markdown_table()
        for name in DEFAULT_REGISTRY.names():
            assert f"`{name}`" in table

    def test_markdown_table_escapes_or_expression_pipes(self):
        from repro.apps.election import correlated_follower_fault, build_election_study

        def builder(name="piped", experiments=1, seed=0):
            return build_election_study(
                name=name,
                faults_by_machine={
                    "green": (correlated_follower_fault("black", "green"),)
                },
                experiments=experiments,
                seed=seed,
            )

        registry = ScenarioRegistry(
            [Scenario(name="piped", description="has an Or expression", builder=builder)]
        )
        # The Or renders with '|'; in the table it must appear escaped so
        # the markdown columns survive.
        assert "|" in correlated_follower_fault("black", "green").to_text()
        table = registry.markdown_table()
        assert "\\|" in table
        row = next(line for line in table.splitlines() if "piped" in line)
        unescaped_pipes = row.replace("\\|", "").count("|")
        assert unescaped_pipes == 4  # the three column separators only

    def test_readme_table_matches_registry_metadata(self):
        """The README scenario table is generated; it must never drift."""
        text = README.read_text(encoding="utf-8")
        begin = "<!-- scenario-table:begin -->"
        end = "<!-- scenario-table:end -->"
        assert begin in text and end in text
        embedded = text.split(begin)[1].split(end)[0].strip()
        assert embedded == DEFAULT_REGISTRY.markdown_table(), (
            "README scenario table is stale; regenerate it with "
            "DEFAULT_REGISTRY.markdown_table()"
        )


# ---------------------------------------------------------------------------
# Cross-scenario comparison harness
# ---------------------------------------------------------------------------


class TestScenarioComparison:
    def test_rows_cover_selected_scenarios(self):
        rows = scenario_comparison(
            names=("toggle", "token-ring-uncorrelated"), experiments=2, seed=3
        )
        assert [row.scenario for row in rows] == ["toggle", "token-ring-uncorrelated"]
        for row in rows:
            assert row.experiments == 2
            assert 0 <= row.accepted <= row.experiments
            assert row.injections >= 0
            assert row.measure_name is not None

    def test_unknown_scenario_name_propagates_registry_error(self):
        with pytest.raises(UnknownScenarioError):
            scenario_comparison(names=("missing",), experiments=1)


# ---------------------------------------------------------------------------
# The two-phase-commit application
# ---------------------------------------------------------------------------


class TestTwoPhaseCommit:
    def test_specifications_are_consistent(self):
        machines = ("coordinator", "part1", "part2")
        coordinator = coordinator_state_machine_spec("coordinator", machines)
        participant = participant_state_machine_spec("part1", machines)
        assert coordinator.transition("IDLE", "BEGIN_TX") == "PREPARE"
        assert coordinator.transition("PREPARE", "TIMEOUT") == "ABORT"
        assert coordinator.notify_list("PREPARE") == ("part1", "part2")
        assert participant.transition("VOTED", "TIMEOUT") == "ABORTED"
        assert participant.notify_list("VOTED") == ("coordinator", "part2")

    def test_coordinator_must_be_one_of_the_machines(self):
        from repro.errors import RuntimeConfigurationError

        with pytest.raises(RuntimeConfigurationError, match="coordinator"):
            build_twophase_study(
                "2pc-bad",
                machines=("c1", "p1", "p2"),
                parameters=TwoPhaseParameters(),  # coordinator defaults to 'coordinator'
            )

    def test_fault_helpers_render_expected_expressions(self):
        prepare = FaultDefinition("cfault1", StateAtom("c", "PREPARE"), FaultTrigger.ONCE)
        assert prepare.to_text() == "cfault1 (c:PREPARE) once"
        assert (
            coordinator_in_doubt_fault("c", "p").to_text()
            == "cfault2 ((c:PREPARE) & (p:VOTED)) once"
        )
        assert participant_voted_fault("part1").to_text() == "pvfault (part1:VOTED) once"

    def test_transactions_commit_without_faults(self):
        study = build_twophase_study(
            "2pc-clean",
            faults_by_machine={},
            experiments=2,
            parameters=TwoPhaseParameters(vote_yes_probability=1.0, run_duration=0.3),
            seed=4,
        )
        analysis = analyze_study(run_single_study(study))
        assert all(e.result.completed for e in analysis.experiments)
        # With unanimous yes votes and no faults the service commits
        # steadily (a first-round abort can still happen while the
        # daemon-spawned participants stagger up) and nobody crashes.
        for experiment in analysis.experiments:
            coordinator = experiment.result.local_timelines["coordinator"]
            states = [r.new_state for r in coordinator.records if r.is_state_change()]
            assert states.count("COMMIT") >= 3
            assert states.count("COMMIT") > states.count("ABORT")
            assert "CRASH" not in states

    def test_in_doubt_fault_crashes_coordinator_and_aborts_participant(self):
        study = build_twophase_study("2pc-indoubt", experiments=4, seed=11)
        analysis = analyze_study(run_single_study(study))
        injected = [
            e
            for e in analysis.experiments
            if any(r.is_fault_injection() for r in e.result.local_timelines["coordinator"].records)
        ]
        assert injected, "the in-doubt fault never fired"
        for experiment in injected:
            coordinator_states = [
                r.new_state
                for r in experiment.result.local_timelines["coordinator"].records
                if r.is_state_change()
            ]
            assert coordinator_states[-1] == "CRASH"
            # The in-doubt participant unblocks via its decision timeout.
            part1_states = [
                r.new_state
                for r in experiment.result.local_timelines["part1"].records
                if r.is_state_change()
            ]
            assert "ABORTED" in part1_states


# ---------------------------------------------------------------------------
# The token-ring application
# ---------------------------------------------------------------------------


class TestTokenRing:
    def test_specification_is_consistent(self):
        spec = ring_state_machine_spec("node1", ("node1", "node2", "node3"))
        assert spec.transition("WAITING", "ACQUIRE") == "HOLDING"
        assert spec.transition("HOLDING", "RELEASE") == "WAITING"
        assert spec.notify_list("HOLDING") == ("node2", "node3")
        assert spec.notify_list("CRASH") == ("node2", "node3")

    def test_token_loss_dispatch_is_prefix_or_explicit_list(self):
        from repro.apps.tokenring import TokenRingApplication

        application = TokenRingApplication()
        # A crash fault whose name merely CONTAINS 'tloss' must not be
        # treated as a token loss.
        class Ctx:
            class random:
                @staticmethod
                def random():
                    return 1.0  # never crash, so only the drop flag matters

        application.on_fault(Ctx(), "atlossy_crash")
        assert not application._drop_next_token
        application.on_fault(Ctx(), "tloss_node1")
        assert application._drop_next_token

        listed = TokenRingApplication(
            TokenRingParameters(token_loss_fault_names=("custom-drop",))
        )
        listed.on_fault(Ctx(), "custom-drop")
        assert listed._drop_next_token

    def test_fault_helpers_render_expected_expressions(self):
        assert holder_crash_fault("node1").to_text() == "node1_hcrash (node1:HOLDING) once"
        assert (
            correlated_holder_crash_fault("node1", "node2").to_text()
            == "node2_hcrash2 ((node1:CRASH) & (node2:HOLDING)) once"
        )
        assert token_loss_fault("node1").to_text() == "tloss_node1 (node1:HOLDING) once"

    def holding_entries(self, experiment, machine):
        return [
            r
            for r in experiment.result.local_timelines[machine].records
            if r.is_state_change() and r.new_state == "HOLDING"
        ]

    def test_token_circulates_without_faults(self):
        study = build_tokenring_study(
            "ring-clean",
            faults_by_machine={},
            experiments=2,
            parameters=TokenRingParameters(run_duration=0.3),
            seed=6,
        )
        analysis = analyze_study(run_single_study(study))
        for experiment in analysis.experiments:
            assert experiment.result.completed
            for machine in ("node1", "node2", "node3"):
                assert self.holding_entries(experiment, machine), (
                    f"{machine} never held the token"
                )

    def test_holder_crash_loses_token_and_ring_recovers(self):
        study = build_tokenring_study("ring-crash", experiments=4, seed=13)
        analysis = analyze_study(run_single_study(study))
        crashed = [
            e
            for e in analysis.experiments
            if any(
                r.is_state_change() and r.new_state == "CRASH"
                for r in e.result.local_timelines["node1"].records
            )
        ]
        assert crashed, "the holder-crash fault never fired"
        for experiment in crashed:
            crash_time = max(
                r.time
                for r in experiment.result.local_timelines["node1"].records
                if r.is_state_change() and r.new_state == "CRASH"
            )
            survivors_holding_after = [
                machine
                for machine in ("node2", "node3")
                if any(r.time > crash_time for r in self.holding_entries(experiment, machine))
            ]
            assert survivors_holding_after, (
                "token was never regenerated after the holder crashed"
            )

    def test_token_loss_fault_drops_token_without_crashing(self):
        study = build_tokenring_study(
            "ring-loss",
            faults_by_machine={"node1": (token_loss_fault("node1"),)},
            experiments=2,
            seed=8,
        )
        analysis = analyze_study(run_single_study(study))
        for experiment in analysis.experiments:
            injections = [
                r
                for r in experiment.result.local_timelines["node1"].records
                if r.is_fault_injection()
            ]
            assert injections, "the token-loss fault never fired"
            # Token loss must not crash anyone...
            for machine in ("node1", "node2", "node3"):
                states = [
                    r.new_state
                    for r in experiment.result.local_timelines[machine].records
                    if r.is_state_change()
                ]
                assert "CRASH" not in states
            # ...and the regeneration rule must keep the ring serving.
            loss_time = injections[0].time
            later_holdings = [
                r
                for machine in ("node1", "node2", "node3")
                for r in self.holding_entries(experiment, machine)
                if r.time > loss_time + 0.05
            ]
            assert later_holdings, "token was never regenerated after the loss"
