"""Construction of the single global timeline (Section 2.5).

Every record of every local timeline is projected onto the reference clock
using the per-host :class:`~repro.analysis.clock_sync.ClockBounds`, giving
a ``[lower, upper]`` interval that is guaranteed to contain the event's true
reference-clock time.  The resulting :class:`GlobalTimeline` also exposes
per-machine *state periods* — the intervals during which each machine was
in each state — which both the injection-verification step and the measure
layer consume.

Entries and state periods are named tuples: every analysed experiment
builds one entry per record, and a tuple is several times cheaper to build
than a frozen dataclass.  A :class:`GlobalTimeline` sorts and indexes its
entries once, when it is built; its ``entries`` list is fixed after that,
and every query reads the index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from math import isfinite
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from repro.analysis.clock_sync import ClockBounds
from repro.core.specs.state_machine import INITIAL_STATE
from repro.core.timeline import LocalTimeline, RecordKind
from repro.errors import AnalysisError

_INFINITY = float("inf")


class GlobalEventKind(enum.Enum):
    """What a global-timeline entry records."""

    STATE_CHANGE = "state_change"
    FAULT_INJECTION = "fault_injection"


def _reject_bounds(lower: float, upper: float) -> None:
    """Raise the :class:`AnalysisError` that ``[lower, upper]`` deserves.

    Callers test ``-inf < lower <= upper < inf`` first, which a NaN fails.
    """
    if not (isfinite(lower) and isfinite(upper)):
        raise AnalysisError(f"global time bounds [{lower}, {upper}] are not finite")
    raise AnalysisError(f"global time upper bound {upper} precedes lower bound {lower}")


class _EntryFields(NamedTuple):
    machine: str
    kind: GlobalEventKind
    lower: float
    upper: float
    host: str
    local_time: float
    event: str | None = None
    new_state: str | None = None
    fault: str | None = None


class GlobalTimelineEntry(_EntryFields):
    """One event projected onto the reference clock.

    Calling the class checks that ``lower <= upper`` are finite;
    :func:`build_global_timeline` checks the same and builds its entries
    with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        machine: str,
        kind: GlobalEventKind,
        lower: float,
        upper: float,
        host: str,
        local_time: float,
        event: str | None = None,
        new_state: str | None = None,
        fault: str | None = None,
    ) -> "GlobalTimelineEntry":
        if not -_INFINITY < lower <= upper < _INFINITY:
            _reject_bounds(lower, upper)
        return tuple.__new__(
            cls, (machine, kind, lower, upper, host, local_time, event, new_state, fault)
        )

    @property
    def midpoint(self) -> float:
        """Midpoint of the global-time interval (used by the measure layer)."""
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        """Width of the global-time uncertainty interval."""
        return self.upper - self.lower


class StatePeriod(NamedTuple):
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


# ``tuple.__new__`` bound to a class builds the same tuple as its generated
# ``__new__`` (a Python function on CPython) without that frame.
_make_entry = partial(tuple.__new__, GlobalTimelineEntry)
_make_period = partial(tuple.__new__, StatePeriod)
_machine_of = itemgetter(0)
_lower_of = itemgetter(2)
_upper_of = itemgetter(3)


def _timeline_order(entry: GlobalTimelineEntry) -> tuple[float, float]:
    """Sort key of the timeline: ``(midpoint, lower)``, without the properties."""
    return 0.5 * (entry[2] + entry[3]), entry[2]


@dataclass
class GlobalTimeline:
    """All experiment events on a single reference-clock timeline.

    Construction sorts ``entries`` by ``(midpoint, lower)`` and indexes
    them once: the machines in first-appearance order, each machine's
    state changes, the fault injections, and the global extent.  The list
    is fixed after construction; every query reads that index.  State
    periods are built the first time a machine's are asked for.
    """

    entries: list[GlobalTimelineEntry] = field(default_factory=list)
    _start: float = field(init=False, repr=False, compare=False, default=0.0)
    _end: float = field(init=False, repr=False, compare=False, default=0.0)
    _changes: dict[str, list[GlobalTimelineEntry]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _injections: list[GlobalTimelineEntry] = field(
        init=False, repr=False, compare=False, default_factory=list
    )
    _periods: dict[str, list[StatePeriod]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            return
        entries.sort(key=_timeline_order)
        self._start = min(map(_lower_of, entries))
        self._end = max(map(_upper_of, entries))
        changes = {machine: [] for machine in dict.fromkeys(map(_machine_of, entries))}
        injections = self._injections
        state_change = GlobalEventKind.STATE_CHANGE
        for entry in entries:
            if entry[1] is state_change:
                changes[entry[0]].append(entry)
            else:
                injections.append(entry)
        self._changes = changes

    # -- global extent ----------------------------------------------------------

    @property
    def start(self) -> float:
        """Lower bound of the earliest event (0 for an empty timeline)."""
        return self._start

    @property
    def end(self) -> float:
        """Upper bound of the latest event (0 for an empty timeline)."""
        return self._end

    @property
    def horizon(self) -> float:
        """A time safely after every event, used to close open state periods."""
        return self._end

    # -- simple selectors ----------------------------------------------------------

    def machines(self) -> tuple[str, ...]:
        """All machines appearing on the timeline, in first-appearance order."""
        return tuple(self._changes)

    def entries_for(self, machine: str) -> list[GlobalTimelineEntry]:
        """All entries of one machine in timeline order."""
        return [entry for entry in self.entries if entry.machine == machine]

    def state_changes(self, machine: str) -> list[GlobalTimelineEntry]:
        """State-change entries of one machine in timeline order."""
        return list(self._changes.get(machine, ()))

    def fault_injections(self, machine: str | None = None) -> list[GlobalTimelineEntry]:
        """Fault-injection entries (of one machine, or of all machines)."""
        if machine is None:
            return list(self._injections)
        return [entry for entry in self._injections if entry.machine == machine]

    # -- state occupancy --------------------------------------------------------------

    def state_periods(self, machine: str) -> list[StatePeriod]:
        """The sequence of state occupancies of one machine."""
        periods = self._periods.get(machine)
        if periods is None:
            changes = self._changes.get(machine, [])
            exits = chain(islice(changes, 1, None), (None,))
            periods = self._periods[machine] = [
                _make_period((machine, change.new_state, change, exit_entry))
                for change, exit_entry in zip(changes, exits)
            ]
        return list(periods)

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
        for change in self._changes.get(machine, ()):
            if change.event == event and (state is None or previous_state == state):
                occurrences.append(change)
            previous_state = change.new_state
        return occurrences


def _projection_corners(
    bounds_by_host: Mapping[str, ClockBounds], host: str, machine: str
) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """``host``'s projection corners: the first one's ``(alpha, beta)``, then the rest."""
    bounds = bounds_by_host.get(host)
    if bounds is None:
        raise AnalysisError(f"no clock bounds for host {host!r} (machine {machine!r})")
    (alpha, beta), *rest = bounds.projection_corners
    return alpha, beta, tuple(rest)


def build_global_timeline(
    local_timelines: Mapping[str, LocalTimeline] | Iterable[LocalTimeline],
    bounds_by_host: Mapping[str, ClockBounds],
) -> GlobalTimeline:
    """Project all local timelines onto a single global timeline.

    Each record's bounds are the extremes of ``(time - alpha) / beta`` over
    its host's projection corners, evaluated in one pass over the records
    with plain floats.  A record whose bounds come out non-finite (a NaN
    or infinite local time) is an :class:`AnalysisError`.

    Parameters
    ----------
    local_timelines:
        The per-machine local timelines produced by the runtime phase.
    bounds_by_host:
        Clock bounds (relative to the chosen reference machine) for every
        host that appears in the local timelines.
    """
    if isinstance(local_timelines, Mapping):
        local_timelines = local_timelines.values()
    corners_by_host: dict[str, tuple[float, float, tuple[tuple[float, float], ...]]] = {}
    entries: list[GlobalTimelineEntry] = []
    append = entries.append
    state_change_record = RecordKind.STATE_CHANGE
    state_change = GlobalEventKind.STATE_CHANGE
    fault_injection = GlobalEventKind.FAULT_INJECTION
    for timeline in local_timelines:
        machine = timeline.machine
        for kind, time, host, event, new_state, fault, _ in timeline.records:
            corners = corners_by_host.get(host)
            if corners is None:
                corners = corners_by_host[host] = _projection_corners(
                    bounds_by_host, host, machine
                )
            alpha, beta, rest = corners
            lower = upper = (time - alpha) / beta
            for alpha, beta in rest:
                value = (time - alpha) / beta
                if value < lower:
                    lower = value
                elif value > upper:
                    upper = value
            if not -_INFINITY < lower <= upper < _INFINITY:
                _reject_bounds(lower, upper)
            append(
                _make_entry(
                    (
                        machine,
                        state_change if kind is state_change_record else fault_injection,
                        lower,
                        upper,
                        host,
                        time,
                        event,
                        new_state,
                        fault,
                    )
                )
            )
    return GlobalTimeline(entries=entries)
