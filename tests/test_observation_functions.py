"""Tests for the observation functions, subset selections, and study measures."""

import pytest

from repro.analysis.intervals import IntervalSet
from repro.errors import MeasureError, ObservationFunctionError
from repro.measures.observation import (
    Count,
    Duration,
    Instant,
    Outcome,
    TotalDuration,
    UserObservation,
)
from repro.measures.predicate import StateTuple
from repro.measures.pvt import PredicateTimeline
from repro.measures.study import MeasureStep, StudyMeasure
from repro.measures.subset import select_all, value_positive, where
from repro.measures.timeline_view import TimelineView


def pvt(steps=(), impulses=(), start=0.0, end=50.0):
    return PredicateTimeline(IntervalSet.from_pairs(steps), impulses, start, end)


SAMPLE = pvt(steps=[(10, 20), (30, 35)], impulses=[5, 40])


class TestCount:
    def test_counts_both_kinds_and_edges(self):
        assert Count("B", "B")(SAMPLE) == 8.0
        assert Count("U", "B")(SAMPLE) == 4.0
        assert Count("U", "S")(SAMPLE) == 2.0
        assert Count("U", "I")(SAMPLE) == 2.0
        assert Count("D", "S")(SAMPLE) == 2.0

    def test_window_restricts_counting(self):
        assert Count("U", "B", start=8, end=32)(SAMPLE) == 2.0

    def test_macros_resolve_to_experiment_bounds(self):
        assert Count("U", "B", start="START_EXP", end="END_EXP")(SAMPLE) == 4.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ObservationFunctionError):
            Count("X", "B")
        with pytest.raises(ObservationFunctionError):
            Count("U", "Q")


class TestOutcome:
    def test_outcome_inside_step(self):
        assert Outcome(15.0)(SAMPLE) == 1.0

    def test_outcome_at_impulse(self):
        assert Outcome(5.0)(SAMPLE) == 1.0

    def test_outcome_outside(self):
        assert Outcome(25.0)(SAMPLE) == 0.0


class TestDuration:
    def test_duration_after_nth_up(self):
        assert Duration("T", 1)(SAMPLE) == pytest.approx(0.0)  # first up is the impulse at 5
        assert Duration("T", 2)(SAMPLE) == pytest.approx(10.0)
        assert Duration("T", 3)(SAMPLE) == pytest.approx(5.0)

    def test_duration_false_after_nth_down(self):
        # After the first down (impulse at 5) the predicate is false until 10.
        assert Duration("F", 1)(SAMPLE) == pytest.approx(5.0)
        assert Duration("F", 2)(SAMPLE) == pytest.approx(10.0)

    def test_missing_occurrence_returns_zero(self):
        assert Duration("T", 9)(SAMPLE) == 0.0

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ObservationFunctionError):
            Duration("T", 0)

    def test_duration_clipped_to_end(self):
        open_ended = pvt(steps=[(40, 50)])
        assert Duration("T", 1, end=45)(open_ended) == pytest.approx(5.0)


class TestInstant:
    def test_nth_transition_instant(self):
        assert Instant("U", "B", 1)(SAMPLE) == pytest.approx(5.0)
        assert Instant("U", "S", 1)(SAMPLE) == pytest.approx(10.0)
        assert Instant("D", "S", 2)(SAMPLE) == pytest.approx(35.0)
        assert Instant("U", "I", 2)(SAMPLE) == pytest.approx(40.0)

    def test_missing_occurrence_returns_zero(self):
        assert Instant("U", "I", 5)(SAMPLE) == 0.0

    def test_window(self):
        assert Instant("U", "B", 1, start=20, end=50)(SAMPLE) == pytest.approx(30.0)


class TestTotalDuration:
    def test_true_total(self):
        assert TotalDuration("T")(SAMPLE) == pytest.approx(15.0)

    def test_false_total(self):
        assert TotalDuration("F")(SAMPLE) == pytest.approx(35.0)

    def test_window(self):
        assert TotalDuration("T", start=15, end=32)(SAMPLE) == pytest.approx(7.0)

    def test_empty_window(self):
        assert TotalDuration("T", start=30, end=20)(SAMPLE) == 0.0


class TestUserObservation:
    def test_wraps_callable(self):
        indicator = UserObservation(lambda timeline: 1.0 if timeline.true_duration() > 0 else 0.0)
        assert indicator(SAMPLE) == 1.0
        assert indicator(pvt()) == 0.0


class TestSubsetSelections:
    def test_select_all(self):
        assert select_all()(None)
        assert select_all()(3.0)

    def test_value_positive(self):
        assert value_positive()(1.0)
        assert not value_positive()(0.0)
        assert value_positive()(None)  # first triple passes everything

    def test_where_custom(self):
        subset = where(lambda value: value != 0)
        assert subset(5.0)
        assert not subset(0.0)


class TestStudyMeasure:
    def view(self, active_until):
        rows = [("m", "ACTIVE", "stop", active_until)]
        return TimelineView.from_rows(rows, start=0.0, end=10.0)

    def test_single_step_measure(self):
        measure = StudyMeasure(
            "time-active", (MeasureStep(StateTuple("m", "ACTIVE"), TotalDuration("T")),)
        )
        assert measure.apply_to_view(self.view(4.0)) == pytest.approx(4.0)

    def test_second_step_subset_filters_experiments(self):
        measure = StudyMeasure.from_triples(
            "conditional",
            [
                (select_all(), StateTuple("m", "ACTIVE"), TotalDuration("T")),
                (where(lambda value: 3 <= value <= 100), StateTuple("m", "ACTIVE"), Count("U", "S")),
            ],
        )
        assert measure.apply_to_view(self.view(5.0)) == 1.0
        assert measure.apply_to_view(self.view(1.0)) is None

    def test_apply_and_final_values(self):
        measure = StudyMeasure.from_triples(
            "conditional",
            [
                (select_all(), StateTuple("m", "ACTIVE"), TotalDuration("T")),
                (where(lambda value: 3 <= value <= 100), StateTuple("m", "ACTIVE"), Count("U", "S")),
            ],
        )
        views = [self.view(5.0), self.view(1.0), self.view(8.0)]
        assert measure.apply(views) == [1.0, None, 1.0]
        assert measure.final_values(views) == [1.0, 1.0]

    def test_empty_measure_rejected(self):
        with pytest.raises(MeasureError):
            StudyMeasure("empty", ())
