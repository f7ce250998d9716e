"""Construction of the single global timeline (Section 2.5).

Every record of every local timeline is projected onto the reference clock
using the per-host :class:`~repro.analysis.clock_sync.ClockBounds`, giving
a ``[lower, upper]`` interval that is guaranteed to contain the event's true
reference-clock time.  The resulting :class:`GlobalTimeline` also exposes
per-machine *state periods* — the intervals during which each machine was
in each state — which both the injection-verification step and the measure
layer consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.analysis.clock_sync import ClockBounds
from repro.core.specs.state_machine import INITIAL_STATE
from repro.core.timeline import LocalTimeline, RecordKind
from repro.errors import AnalysisError


class GlobalEventKind(enum.Enum):
    """What a global-timeline entry records."""

    STATE_CHANGE = "state_change"
    FAULT_INJECTION = "fault_injection"


@dataclass(frozen=True)
class GlobalTimelineEntry:
    """One event projected onto the reference clock."""

    machine: str
    kind: GlobalEventKind
    lower: float
    upper: float
    host: str
    local_time: float
    event: str | None = None
    new_state: str | None = None
    fault: str | None = None

    def __post_init__(self) -> None:
        if self.upper < self.lower:
            raise AnalysisError(
                f"global time upper bound {self.upper} precedes lower bound {self.lower}"
            )

    @property
    def midpoint(self) -> float:
        """Midpoint of the global-time interval (used by the measure layer)."""
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        """Width of the global-time uncertainty interval."""
        return self.upper - self.lower


@dataclass(frozen=True)
class StatePeriod:
    """One occupancy of one state by one machine on the global timeline.

    ``entry`` is the state change that entered the state; ``exit`` is the
    state change that left it, or ``None`` if the machine was still in the
    state at the end of the experiment.
    """

    machine: str
    state: str
    entry: GlobalTimelineEntry
    exit: GlobalTimelineEntry | None

    def certain_interval(self, horizon: float) -> tuple[float, float] | None:
        """The interval during which the machine was *provably* in the state."""
        start = self.entry.upper
        end = self.exit.lower if self.exit is not None else horizon
        if end < start:
            return None
        return start, end

    def possible_interval(self, horizon: float) -> tuple[float, float]:
        """The interval during which the machine *may* have been in the state."""
        start = self.entry.lower
        end = self.exit.upper if self.exit is not None else horizon
        return start, max(start, end)


@dataclass
class GlobalTimeline:
    """All experiment events on a single reference-clock timeline."""

    entries: list[GlobalTimelineEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries.sort(key=lambda entry: (entry.midpoint, entry.lower))

    # -- global extent ----------------------------------------------------------

    @property
    def start(self) -> float:
        """Lower bound of the earliest event (0 for an empty timeline)."""
        if not self.entries:
            return 0.0
        return min(entry.lower for entry in self.entries)

    @property
    def end(self) -> float:
        """Upper bound of the latest event (0 for an empty timeline)."""
        if not self.entries:
            return 0.0
        return max(entry.upper for entry in self.entries)

    @property
    def horizon(self) -> float:
        """A time safely after every event, used to close open state periods."""
        return self.end

    # -- simple selectors ----------------------------------------------------------

    def machines(self) -> tuple[str, ...]:
        """All machines appearing on the timeline, in first-appearance order."""
        seen: list[str] = []
        for entry in self.entries:
            if entry.machine not in seen:
                seen.append(entry.machine)
        return tuple(seen)

    def entries_for(self, machine: str) -> list[GlobalTimelineEntry]:
        """All entries of one machine in timeline order."""
        return [entry for entry in self.entries if entry.machine == machine]

    def state_changes(self, machine: str) -> list[GlobalTimelineEntry]:
        """State-change entries of one machine in timeline order."""
        return [
            entry
            for entry in self.entries
            if entry.machine == machine and entry.kind is GlobalEventKind.STATE_CHANGE
        ]

    def fault_injections(self, machine: str | None = None) -> list[GlobalTimelineEntry]:
        """Fault-injection entries (of one machine, or of all machines)."""
        return [
            entry
            for entry in self.entries
            if entry.kind is GlobalEventKind.FAULT_INJECTION
            and (machine is None or entry.machine == machine)
        ]

    # -- state occupancy --------------------------------------------------------------

    def state_periods(self, machine: str) -> list[StatePeriod]:
        """The sequence of state occupancies of one machine."""
        periods: list[StatePeriod] = []
        changes = self.state_changes(machine)
        for index, change in enumerate(changes):
            exit_entry = changes[index + 1] if index + 1 < len(changes) else None
            periods.append(
                StatePeriod(
                    machine=machine, state=change.new_state, entry=change, exit=exit_entry
                )
            )
        return periods

    def state_periods_for_state(self, machine: str, state: str) -> list[StatePeriod]:
        """State occupancies of one machine restricted to one state."""
        return [period for period in self.state_periods(machine) if period.state == state]

    def event_occurrences(self, machine: str, state: str | None, event: str) -> list[GlobalTimelineEntry]:
        """Occurrences of ``event`` in ``machine`` while it was in ``state``.

        A state-change record ``(event, new_state)`` occurred while the
        machine was still in its *previous* state, so matching is done
        against the state the machine was leaving.  ``state=None`` matches
        any state.
        """
        occurrences: list[GlobalTimelineEntry] = []
        previous_state = INITIAL_STATE
        for change in self.state_changes(machine):
            if change.event == event and (state is None or previous_state == state):
                occurrences.append(change)
            previous_state = change.new_state
        return occurrences


def build_global_timeline(
    local_timelines: Mapping[str, LocalTimeline] | Iterable[LocalTimeline],
    bounds_by_host: Mapping[str, ClockBounds],
) -> GlobalTimeline:
    """Project all local timelines onto a single global timeline.

    Parameters
    ----------
    local_timelines:
        The per-machine local timelines produced by the runtime phase.
    bounds_by_host:
        Clock bounds (relative to the chosen reference machine) for every
        host that appears in the local timelines.
    """
    if isinstance(local_timelines, Mapping):
        timelines = list(local_timelines.values())
    else:
        timelines = list(local_timelines)
    entries: list[GlobalTimelineEntry] = []
    for timeline in timelines:
        records = timeline.records
        if not records:
            continue
        # Group record positions by host (a node that restarts mid-
        # experiment changes host), then project each host's record times
        # through the polygon corners with one numpy broadcast instead of
        # a per-record Python loop over the corners.
        positions_by_host: dict[str, list[int]] = {}
        for position, record in enumerate(records):
            positions_by_host.setdefault(record.host, []).append(position)
        lowers = np.empty(len(records))
        uppers = np.empty(len(records))
        for host, positions in positions_by_host.items():
            bounds = bounds_by_host.get(host)
            if bounds is None:
                raise AnalysisError(
                    f"no clock bounds for host {host!r} "
                    f"(machine {timeline.machine!r})"
                )
            corners = bounds.projection_corners
            times = np.array([records[position].time for position in positions])
            candidates = (times[:, None] - corners[None, :, 0]) / corners[None, :, 1]
            lowers[positions] = candidates.min(axis=1)
            uppers[positions] = candidates.max(axis=1)
        for position, record in enumerate(records):
            if record.kind is RecordKind.STATE_CHANGE:
                kind = GlobalEventKind.STATE_CHANGE
            else:
                kind = GlobalEventKind.FAULT_INJECTION
            entries.append(
                GlobalTimelineEntry(
                    machine=timeline.machine,
                    kind=kind,
                    lower=float(lowers[position]),
                    upper=float(uppers[position]),
                    host=record.host,
                    local_time=record.time,
                    event=record.event,
                    new_state=record.new_state,
                    fault=record.fault,
                )
            )
    return GlobalTimeline(entries=entries)
