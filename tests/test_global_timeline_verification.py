"""Tests for global-timeline construction and injection verification."""

import pytest

from repro.analysis.clock_sync import ClockBounds
from repro.analysis.global_timeline import (
    GlobalEventKind,
    GlobalTimeline,
    GlobalTimelineEntry,
    build_global_timeline,
)
from repro.analysis.verification import (
    expression_regions,
    verify_experiment,
)
from repro.core.expression import And, Not, Or, StateAtom
from repro.core.specs.fault_spec import FaultDefinition, FaultSpecification, FaultTrigger
from repro.core.timeline import LocalTimeline
from repro.errors import AnalysisError


def bounds_with_uncertainty(width_seconds):
    half = width_seconds / 2.0
    return ClockBounds(alpha_lower=-half, alpha_upper=half, beta_lower=1.0, beta_upper=1.0)


def driver_timeline(active_at, idle_at, host="hosta"):
    timeline = LocalTimeline(
        machine="driver",
        state_machines=("driver", "observer"),
        global_states=("BEGIN", "IDLE", "ACTIVE", "EXIT"),
        events=("GO_ACTIVE", "GO_IDLE", "default"),
    )
    timeline.add_state_change("default", "IDLE", time=0.01, host=host)
    timeline.add_state_change("GO_ACTIVE", "ACTIVE", time=active_at, host=host)
    timeline.add_state_change("GO_IDLE", "IDLE", time=idle_at, host=host)
    return timeline


def observer_timeline(injection_at, host="hostb"):
    faults = FaultSpecification.from_definitions(
        [
            FaultDefinition(
                "fstate",
                And(StateAtom("driver", "ACTIVE"), StateAtom("observer", "READY")),
                FaultTrigger.ALWAYS,
            )
        ]
    )
    timeline = LocalTimeline(
        machine="observer",
        state_machines=("driver", "observer"),
        global_states=("BEGIN", "READY", "EXIT"),
        events=("DONE", "default"),
        faults=faults,
    )
    timeline.add_state_change("default", "READY", time=0.005, host=host)
    timeline.add_fault_injection("fstate", time=injection_at, host=host)
    return timeline


def fault_specs():
    return {
        "driver": FaultSpecification(),
        "observer": observer_timeline(0.0).faults,
    }


class TestGlobalTimelineConstruction:
    def test_projection_applies_clock_bounds(self):
        bounds = {
            "hosta": ClockBounds(alpha_lower=0.0009, alpha_upper=0.0011,
                                 beta_lower=1.0, beta_upper=1.0),
        }
        timeline = LocalTimeline(machine="m", state_machines=("m",),
                                 global_states=("A",), events=("e",))
        timeline.add_state_change("e", "A", time=0.5, host="hosta")
        built = build_global_timeline({"m": timeline}, bounds)
        entry = built.entries[0]
        assert entry.lower == pytest.approx(0.5 - 0.0011)
        assert entry.upper == pytest.approx(0.5 - 0.0009)
        assert entry.kind is GlobalEventKind.STATE_CHANGE

    def test_missing_host_bounds_rejected(self):
        timeline = LocalTimeline(machine="m", global_states=("A",), events=("e",))
        timeline.add_state_change("e", "A", time=0.5, host="mystery")
        with pytest.raises(AnalysisError):
            build_global_timeline({"m": timeline}, {})

    def test_entries_sorted_and_machines_listed(self):
        bounds = {"hosta": ClockBounds.identity(), "hostb": ClockBounds.identity()}
        built = build_global_timeline(
            {"driver": driver_timeline(0.1, 0.2), "observer": observer_timeline(0.15)}, bounds
        )
        midpoints = [entry.midpoint for entry in built.entries]
        assert midpoints == sorted(midpoints)
        assert set(built.machines()) == {"driver", "observer"}

    def test_state_periods(self):
        bounds = {"hosta": ClockBounds.identity()}
        built = build_global_timeline({"driver": driver_timeline(0.1, 0.2)}, bounds)
        periods = built.state_periods("driver")
        assert [period.state for period in periods] == ["IDLE", "ACTIVE", "IDLE"]
        active = built.state_periods_for_state("driver", "ACTIVE")[0]
        assert active.entry.midpoint == pytest.approx(0.1)
        assert active.exit.midpoint == pytest.approx(0.2)
        # The final IDLE period is open-ended.
        assert periods[-1].exit is None

    def test_event_occurrences_match_previous_state(self):
        bounds = {"hosta": ClockBounds.identity()}
        built = build_global_timeline({"driver": driver_timeline(0.1, 0.2)}, bounds)
        occurrences = built.event_occurrences("driver", "IDLE", "GO_ACTIVE")
        assert len(occurrences) == 1
        assert built.event_occurrences("driver", "ACTIVE", "GO_ACTIVE") == []

    def test_fault_injection_selector(self):
        bounds = {"hosta": ClockBounds.identity(), "hostb": ClockBounds.identity()}
        built = build_global_timeline(
            {"driver": driver_timeline(0.1, 0.2), "observer": observer_timeline(0.15)}, bounds
        )
        assert len(built.fault_injections()) == 1
        assert len(built.fault_injections("observer")) == 1
        assert built.fault_injections("driver") == []

    def test_invalid_entry_bounds_rejected(self):
        with pytest.raises(AnalysisError):
            GlobalTimelineEntry(
                machine="m", kind=GlobalEventKind.STATE_CHANGE,
                lower=2.0, upper=1.0, host="h", local_time=1.5,
            )

    def test_empty_timeline_properties(self):
        timeline = GlobalTimeline()
        assert timeline.start == 0.0
        assert timeline.end == 0.0
        assert timeline.machines() == ()


class TestVerification:
    def run_case(self, injection_at, uncertainty=0.0002, active=(0.1, 0.2)):
        bounds = {
            "hosta": bounds_with_uncertainty(uncertainty),
            "hostb": bounds_with_uncertainty(uncertainty),
        }
        built = build_global_timeline(
            {
                "driver": driver_timeline(active[0], active[1]),
                "observer": observer_timeline(injection_at),
            },
            bounds,
        )
        return verify_experiment(built, fault_specs())

    def test_injection_well_inside_state_is_correct(self):
        verification = self.run_case(injection_at=0.15)
        assert verification.correct
        assert verification.injections_checked == 1
        assert verification.verdicts[0].correct

    def test_injection_after_state_exit_is_incorrect(self):
        verification = self.run_case(injection_at=0.25)
        assert not verification.correct
        assert verification.incorrect_verdicts[0].fault == "fstate"

    def test_injection_before_state_entry_is_incorrect(self):
        verification = self.run_case(injection_at=0.05)
        assert not verification.correct

    def test_injection_near_boundary_is_conservatively_rejected(self):
        # The injection is 50 microseconds before the state exit but the
        # clock uncertainty is 400 microseconds, so correctness cannot be
        # proven and the paper's conservative rule rejects it.
        verification = self.run_case(injection_at=0.19995, uncertainty=0.0004)
        assert not verification.correct

    def test_unknown_fault_is_incorrect(self):
        bounds = {"hosta": ClockBounds.identity(), "hostb": ClockBounds.identity()}
        built = build_global_timeline(
            {"driver": driver_timeline(0.1, 0.2), "observer": observer_timeline(0.15)}, bounds
        )
        verification = verify_experiment(built, {"observer": FaultSpecification()})
        assert not verification.correct
        assert "not in the fault specification" in verification.verdicts[0].reason

    def test_missing_faults_reported_when_requested(self):
        bounds = {"hosta": ClockBounds.identity()}
        built = build_global_timeline({"driver": driver_timeline(0.1, 0.2)}, bounds)
        verification = verify_experiment(built, fault_specs(), require_all_faults=True)
        assert ("observer", "fstate") in verification.missing_faults
        assert verification.correct  # no *incorrect* injections

    def test_same_machine_fault_uses_local_order(self):
        # A fault triggered by the injected machine's own state entry shares
        # its timestamp with the state change; local ordering proves it.
        faults = FaultSpecification.from_definitions(
            [FaultDefinition("own", StateAtom("driver", "ACTIVE"), FaultTrigger.ALWAYS)]
        )
        timeline = driver_timeline(0.1, 0.2)
        timeline.faults = faults
        timeline.add_fault_injection("own", time=0.1, host="hosta")
        built = build_global_timeline(
            {"driver": timeline}, {"hosta": bounds_with_uncertainty(0.0004)}
        )
        verification = verify_experiment(built, {"driver": faults})
        assert verification.correct


class TestExpressionRegions:
    def build(self):
        bounds = {"hosta": ClockBounds.identity(), "hostb": ClockBounds.identity()}
        return build_global_timeline(
            {"driver": driver_timeline(0.1, 0.2), "observer": observer_timeline(0.15)}, bounds
        )

    def test_atom_regions(self):
        timeline = self.build()
        regions = expression_regions(timeline, StateAtom("driver", "ACTIVE"), timeline.horizon)
        assert regions.certain.contains(0.15)
        assert not regions.certain.contains(0.25)

    def test_and_or_not_regions(self):
        timeline = self.build()
        horizon = timeline.horizon
        conjunction = And(StateAtom("driver", "ACTIVE"), StateAtom("observer", "READY"))
        regions = expression_regions(timeline, conjunction, horizon)
        assert regions.certain.contains(0.15)
        negation = Not(StateAtom("driver", "ACTIVE"))
        neg_regions = expression_regions(timeline, negation, horizon)
        assert neg_regions.certain.contains(0.05)
        assert not neg_regions.certain.contains(0.15)
        disjunction = Or(StateAtom("driver", "ACTIVE"), StateAtom("driver", "IDLE"))
        dis_regions = expression_regions(timeline, disjunction, horizon)
        assert dis_regions.certain.contains(0.05)
        assert dis_regions.certain.contains(0.15)
