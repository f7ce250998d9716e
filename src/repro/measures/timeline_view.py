"""A query view over one experiment's global timeline.

Predicates need two queries over an experiment's history: during which
intervals was a machine in a given state, and at which instants did a given
event occur in a machine while it was in a given state.  A
:class:`TimelineView` answers both, and can be built either from an
analysis-phase :class:`~repro.analysis.global_timeline.GlobalTimeline`
(collapsing each event's ``[lower, upper]`` bounds with a configurable
policy, midpoint by default, as in Figure 4.2) or directly from rows of the
paper's example table for the worked Figure 4.2 reproduction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.analysis.global_timeline import GlobalTimeline
from repro.core.specs.state_machine import INITIAL_STATE
from repro.errors import MeasureError

#: Valid policies for collapsing an event's global-time bounds to one instant.
TIME_POLICIES = ("midpoint", "lower", "upper")


class TimelineView:
    """State-occupancy intervals and event instants for one experiment."""

    def __init__(
        self,
        state_intervals: dict[str, dict[str, list[tuple[float, float]]]],
        events: dict[str, list[tuple[str, str, float]]],
        start: float,
        end: float,
    ) -> None:
        if end < start:
            raise MeasureError(f"experiment end {end} precedes start {start}")
        self._state_intervals = state_intervals
        self._events = events
        self._start = start
        self._end = end

    # -- experiment extent ------------------------------------------------------

    @property
    def start(self) -> float:
        """Experiment start time (the ``START_EXP`` macro)."""
        return self._start

    @property
    def end(self) -> float:
        """Experiment end time (the ``END_EXP`` macro)."""
        return self._end

    # -- queries -------------------------------------------------------------------

    def machines(self) -> tuple[str, ...]:
        """Machines known to the view."""
        names = set(self._state_intervals) | set(self._events)
        return tuple(sorted(names))

    def state_intervals(self, machine: str, state: str) -> list[tuple[float, float]]:
        """Intervals during which ``machine`` was in ``state``."""
        return list(self._state_intervals.get(machine, {}).get(state, []))

    def event_times(self, machine: str, event: str, state: str | None = None) -> list[float]:
        """Instants at which ``event`` occurred in ``machine``.

        When ``state`` is given, only occurrences while the machine was in
        that state are returned (the state *during which* the event
        occurred, matching the paper's tuple semantics).
        """
        occurrences = self._events.get(machine, [])
        return sorted(
            time
            for during_state, name, time in occurrences
            if name == event and (state is None or during_state == state)
        )

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_global_timeline(
        cls, timeline: GlobalTimeline, time_policy: str = "midpoint"
    ) -> "TimelineView":
        """Build a view from an analysis-phase global timeline.

        ``time_policy`` selects how each event's ``[lower, upper]`` interval
        is collapsed to a single instant: ``"midpoint"`` (the default, used
        by the Figure 4.2 example), ``"lower"``, or ``"upper"``.  The view
        reads the timeline's columns through its per-machine index.
        """
        if time_policy not in TIME_POLICIES:
            raise MeasureError(f"unknown time policy {time_policy!r}; expected one of {TIME_POLICIES}")

        state_intervals: dict[str, dict[str, list[tuple[float, float]]]] = {}
        events: dict[str, list[tuple[str, str, float]]] = {}
        start = timeline.start
        end = timeline.horizon
        if time_policy == "midpoint":
            bounds = zip(timeline.lower, timeline.upper)
            instants = [0.5 * (lower + upper) for lower, upper in bounds]
        else:
            instants = getattr(timeline, time_policy)
        event_column, state_column = timeline.event, timeline.new_state
        for machine in timeline.machines():
            intervals: dict[str, list[tuple[float, float]]] = {}
            occurrences: list[tuple[str, str, float]] = []
            previous_state = INITIAL_STATE
            previous_time = start
            for position in timeline.change_positions(machine):
                time = instants[position]
                intervals.setdefault(previous_state, []).append((previous_time, time))
                occurrences.append((previous_state, event_column[position], time))
                previous_state = state_column[position]
                previous_time = time
            intervals.setdefault(previous_state, []).append((previous_time, end))
            state_intervals[machine] = intervals
            if occurrences:
                events[machine] = occurrences
        return cls(state_intervals=state_intervals, events=events, start=start, end=end)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence],
        start: float = 0.0,
        end: float | None = None,
    ) -> "TimelineView":
        """Build a view from ``(machine, state, event, time)`` rows.

        This is the format of the paper's Figure 4.2 example table: each row
        says that ``event`` occurred at ``time`` while ``machine`` was in
        ``state``; the state therefore occupies the interval from the
        machine's previous row (or ``start``) up to ``time``.  The state the
        machine is in after its last row is unknown and contributes no
        interval.
        """
        parsed: list[tuple[str, str, str, float]] = []
        for row in rows:
            if len(row) != 4:
                raise MeasureError(f"rows must be (machine, state, event, time), got {row!r}")
            machine, state, event, time = row
            parsed.append((str(machine), str(state), str(event), float(time)))
        if end is None:
            end = max((time for *_ignored, time in parsed), default=start)

        state_intervals: dict[str, dict[str, list[tuple[float, float]]]] = defaultdict(
            lambda: defaultdict(list)
        )
        events: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
        previous_time: dict[str, float] = {}
        for machine, state, event, time in sorted(parsed, key=lambda row: row[3]):
            interval_start = previous_time.get(machine, start)
            state_intervals[machine][state].append((interval_start, time))
            events[machine].append((state, event, time))
            previous_time[machine] = time
        return cls(
            state_intervals={m: dict(states) for m, states in state_intervals.items()},
            events=dict(events),
            start=start,
            end=float(end),
        )
