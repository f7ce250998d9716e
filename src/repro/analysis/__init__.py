"""The offline analysis phase (Section 2.5).

After the runtime phase, the analysis phase:

1. estimates bounds on the offset and drift of every machine's clock
   relative to a reference machine from the synchronization messages
   exchanged before and after the experiment
   (:mod:`repro.analysis.clock_sync`);
2. projects all local timelines onto a single global timeline of
   ``[lower, upper]`` reference-clock intervals
   (:mod:`repro.analysis.global_timeline`);
3. conservatively checks that every fault was injected in the intended
   global state and discards experiments containing incorrect injections
   (:mod:`repro.analysis.verification`).
"""

from repro.analysis.clock_sync import (
    ClockBounds,
    SyncMessageRecord,
    SyncTable,
    estimate_all_bounds,
    estimate_clock_bounds,
    estimate_clock_bounds_lp,
    select_reference_host,
)
from repro.analysis.global_timeline import (
    GlobalEventKind,
    GlobalTimeline,
    GlobalTimelineEntry,
    StatePeriod,
    build_global_timeline,
)
from repro.analysis.intervals import Interval, IntervalSet
from repro.analysis.verification import (
    ExperimentVerification,
    InjectionVerdict,
    filter_experiments,
    verify_experiment,
)

__all__ = [
    "ClockBounds",
    "ExperimentVerification",
    "GlobalEventKind",
    "GlobalTimeline",
    "GlobalTimelineEntry",
    "InjectionVerdict",
    "Interval",
    "IntervalSet",
    "StatePeriod",
    "SyncMessageRecord",
    "SyncTable",
    "build_global_timeline",
    "estimate_all_bounds",
    "estimate_clock_bounds",
    "estimate_clock_bounds_lp",
    "filter_experiments",
    "select_reference_host",
    "verify_experiment",
]
