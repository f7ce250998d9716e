"""The measure-estimation phase (Chapter 4).

Measures are defined at two levels.  A *study-level measure* is an ordered
sequence of (subset selection, predicate, observation function) triples
applied to the verified global timeline of every experiment of the study;
its output per experiment is a *final observation function value*.  A
*campaign-level measure* combines the final observation function values
across studies: as one pooled sample (*simple sampling*), as a linearly
weighted combination of per-study moments (*stratified weighted*), or with
an arbitrary user function of the per-study means (*stratified user*).

Both levels are pure functions of the analysis phase's output: they apply
unchanged to a live :class:`~repro.pipeline.CampaignAnalysis` and to one
re-loaded from a :class:`~repro.store.CampaignStore` archive, which is what
makes the run-once/analyze-many workflow possible
(:func:`estimate_campaign_measure` is the one-call form).
"""

from repro.measures.campaign_measures import (
    CampaignMeasureResult,
    SimpleSamplingMeasure,
    StratifiedUserMeasure,
    StratifiedWeightedMeasure,
    estimate_campaign_measure,
)
from repro.measures.observation import (
    Count,
    Duration,
    Instant,
    ObservationFunction,
    Outcome,
    TotalDuration,
    UserObservation,
)
from repro.measures.predicate import (
    EventTuple,
    PAnd,
    PNot,
    POr,
    Predicate,
    StateTuple,
    TimeWindow,
)
from repro.measures.pvt import PredicateTimeline, Transition
from repro.measures.statistics import MomentSummary, combine_stratified, summarize_sample
from repro.measures.study import MeasureStep, StudyMeasure
from repro.measures.subset import SubsetSelection, select_all, value_positive, where
from repro.measures.timeline_view import TimelineView

__all__ = [
    "CampaignMeasureResult",
    "Count",
    "Duration",
    "EventTuple",
    "Instant",
    "MeasureStep",
    "MomentSummary",
    "ObservationFunction",
    "Outcome",
    "PAnd",
    "PNot",
    "POr",
    "Predicate",
    "PredicateTimeline",
    "SimpleSamplingMeasure",
    "StateTuple",
    "StratifiedUserMeasure",
    "StratifiedWeightedMeasure",
    "StudyMeasure",
    "SubsetSelection",
    "TimeWindow",
    "TimelineView",
    "TotalDuration",
    "Transition",
    "UserObservation",
    "combine_stratified",
    "estimate_campaign_measure",
    "select_all",
    "summarize_sample",
    "value_positive",
    "where",
]
