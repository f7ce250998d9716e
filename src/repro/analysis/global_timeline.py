"""Construction of the single global timeline (Section 2.5).

Every record of every local timeline is projected onto the reference clock
using the per-host :class:`~repro.analysis.clock_sync.ClockBounds`, giving
a ``[lower, upper]`` interval that is guaranteed to contain the event's true
reference-clock time.  The resulting :class:`GlobalTimeline` also exposes
per-machine *state periods* — the intervals during which each machine was
in each state — which both the injection-verification step and the measure
layer consume.

A :class:`GlobalTimeline` holds its events as parallel per-field columns
(tuples), sorted into timeline order and indexed by position once, when
it is built.  Verification and the measure layer read the columns
through that index.  :class:`GlobalTimelineEntry` and :class:`StatePeriod`
tuples are views: they are built when ``entries``, a selector or
``state_periods`` is asked for, and nothing keeps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from math import isfinite
from operator import attrgetter, itemgetter, le
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    """One event projected onto the reference clock: a view of a timeline row.

    Calling the class checks that ``lower <= upper`` are finite; a
    :class:`GlobalTimeline` checks the same of its columns and builds its
    entry views with ``tuple.__new__``.
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


# ``tuple.__new__`` bound to a class builds the same tuple as its generated
# ``__new__`` (a Python function on CPython) without that frame.
_make_entry = partial(tuple.__new__, GlobalTimelineEntry)
_make_period = partial(tuple.__new__, StatePeriod)

#: Attribute names of :attr:`GlobalTimeline.columns`, and their getter.
_COLUMN_NAMES = GlobalTimelineEntry._fields
_columns_of = attrgetter(*_COLUMN_NAMES)

#: The global kind of each local record kind.
_GLOBAL_KINDS = {
    RecordKind.STATE_CHANGE: GlobalEventKind.STATE_CHANGE,
    RecordKind.FAULT_INJECTION: GlobalEventKind.FAULT_INJECTION,
}


@dataclass
class GlobalTimeline:
    """All experiment events on a single reference-clock timeline.

    The events are nine parallel columns named after the
    :class:`GlobalTimelineEntry` fields; position ``i`` of every column is
    the timeline's ``i``-th event.  Construction checks that every
    ``lower <= upper`` pair is finite, sorts the columns into tuples by
    ``(midpoint, lower)`` (stable: events that tie keep the order they
    were given in) and indexes them once by position: the machines in
    first-appearance order, each machine's state changes, the fault
    injections, and the global extent.  The columns are fixed after
    construction; every query reads that index.  Entries and state
    periods are views, built each time they are asked for.
    """

    machine: Sequence[str] = ()
    kind: Sequence[GlobalEventKind] = ()
    lower: Sequence[float] = ()
    upper: Sequence[float] = ()
    host: Sequence[str] = ()
    local_time: Sequence[float] = ()
    event: Sequence[str | None] = ()
    new_state: Sequence[str | None] = ()
    fault: Sequence[str | None] = ()
    _start: float = field(init=False, repr=False, compare=False, default=0.0)
    _end: float = field(init=False, repr=False, compare=False, default=0.0)
    _changes: dict[str, list[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _injections: list[int] = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self) -> None:
        columns, lower, upper = self.columns, self.lower, self.upper
        if len(set(map(len, columns))) > 1:
            raise AnalysisError("global timeline columns differ in length")
        permute: Callable[[Sequence], tuple] = tuple
        if lower:
            self._start, self._end = min(lower), max(upper)
            # ``le`` is false for a NaN, and an infinite bound makes the
            # extent infinite, so one pass and the extent check everything.
            if not (
                all(map(le, lower, upper)) and -_INFINITY < self._start and self._end < _INFINITY
            ):
                for low, high in zip(lower, upper):
                    if not -_INFINITY < low <= high < _INFINITY:
                        _reject_bounds(low, high)
        if len(lower) > 1:
            keys = list(zip([0.5 * (low + high) for low, high in zip(lower, upper)], lower))
            permute = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
        for name, column in zip(_COLUMN_NAMES, columns):
            setattr(self, name, permute(column))
        changes = self._changes = {machine: [] for machine in dict.fromkeys(self.machine)}
        injections = self._injections
        state_change = GlobalEventKind.STATE_CHANGE
        for position, (machine, kind) in enumerate(zip(self.machine, self.kind)):
            if kind is state_change:
                changes[machine].append(position)
            else:
                injections.append(position)

    @property
    def columns(self) -> tuple[Sequence, ...]:
        """The event columns, in :class:`GlobalTimelineEntry` field order."""
        return _columns_of(self)

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

    # -- positions --------------------------------------------------------------------

    def machines(self) -> tuple[str, ...]:
        """All machines appearing on the timeline, in first-appearance order."""
        return tuple(self._changes)

    def change_positions(self, machine: str) -> list[int]:
        """Column positions of one machine's state changes, in timeline order."""
        return list(self._changes.get(machine, ()))

    def injection_positions(self, machine: str | None = None) -> list[int]:
        """Column positions of the fault injections (of one machine, or all)."""
        if machine is None:
            return list(self._injections)
        return [position for position in self._injections if self.machine[position] == machine]

    def change_periods(self, machine: str) -> list[tuple[int, int | None]]:
        """``(entry, exit)`` positions of one machine's state occupancies.

        ``entry`` is the state change that entered the state; ``exit`` is
        the next one, or ``None`` for the state the machine ended in.
        """
        changes = self._changes.get(machine, [])
        return list(zip(changes, chain(islice(changes, 1, None), (None,))))

    # -- entry views ---------------------------------------------------------------

    @property
    def entries(self) -> list[GlobalTimelineEntry]:
        """Every event in timeline order, built from the columns."""
        return list(map(_make_entry, zip(*self.columns)))

    def entry(self, position: int) -> GlobalTimelineEntry:
        """The event at one column position."""
        return _make_entry(column[position] for column in self.columns)

    def state_changes(self, machine: str) -> list[GlobalTimelineEntry]:
        """State-change entries of one machine in timeline order."""
        return list(map(self.entry, self._changes.get(machine, ())))

    def fault_injections(self, machine: str | None = None) -> list[GlobalTimelineEntry]:
        """Fault-injection entries (of one machine, or of all machines)."""
        return list(map(self.entry, self.injection_positions(machine)))

    # -- state occupancy --------------------------------------------------------------

    def state_periods(self, machine: str) -> list[StatePeriod]:
        """The sequence of state occupancies of one machine."""
        entry, new_state = self.entry, self.new_state
        return [
            _make_period(
                (machine, new_state[start], entry(start), None if stop is None else entry(stop))
            )
            for start, stop in self.change_periods(machine)
        ]

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
        for position in self._changes.get(machine, ()):
            if self.event[position] == event and (state is None or previous_state == state):
                occurrences.append(self.entry(position))
            previous_state = self.new_state[position]
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
    its host's projection corners, evaluated in one pass over each
    timeline's time and host columns with plain floats; every other column
    is carried over whole.  A record whose bounds come out non-finite (a
    NaN or infinite local time) is an :class:`AnalysisError`.

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
    columns: list[list] = [[] for _ in _COLUMN_NAMES]
    machines, kinds, lowers, uppers, hosts, local_times, events, new_states, faults = columns
    append_lower, append_upper = lowers.append, uppers.append
    for timeline in local_timelines:
        machine = timeline.machine
        machines += repeat(machine, len(timeline.time))
        kinds += map(_GLOBAL_KINDS.__getitem__, timeline.kind)
        hosts += timeline.host
        local_times += timeline.time
        events += timeline.event
        new_states += timeline.new_state
        faults += timeline.fault
        for time, host in zip(timeline.time, timeline.host):
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
            append_lower(lower)
            append_upper(upper)
    return GlobalTimeline(*columns)
