"""Local timelines and the paper's local-timeline file format (Section 3.5.6).

During the runtime phase the recorder of every node appends records to a
*local timeline*: every local state change and every fault injection,
stamped with the local hardware clock.  The analysis phase later projects
the local timelines onto a single global timeline.

In memory a :class:`LocalTimeline` holds its records as parallel
per-field columns (plain lists), not as one object per record: the
recorder appends to the columns, the store codecs fill them whole, and the
analysis phase reads them.  :class:`TimelineRecord` tuples exist only as
views, built when :attr:`LocalTimeline.records` or a selector is asked for.

The on-disk format follows the paper: the header lists the state machines,
global states, events, and faults together with integer indices, and the
timeline section uses those indices plus 64-bit timestamps split into two
32-bit halves.  Two small extensions (recorded under "Deviations from the
paper" in ``docs/architecture.md``) are needed because our substrate
supports node restart on a different host:

* ``HOST <name>`` directive lines inside the timeline section record which
  host the following records were produced on, and
* ``NOTE <text>`` lines carry free-form annotations (the "messages that the
  user would want to include" mentioned by the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import NamedTuple

from repro.core.specs.fault_spec import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
)
from repro.core.expression import parse_expression
from repro.errors import TimelineFormatError

#: Factor converting local-clock seconds to the integer nanosecond timestamps
#: used by the 64-bit on-disk representation.
_NANOSECONDS = 1_000_000_000


class RecordKind(enum.IntEnum):
    """Numeric record type constants of the local-timeline format."""

    STATE_CHANGE = 0
    FAULT_INJECTION = 1


class TimelineRecord(NamedTuple):
    """One record of a local timeline, as a view of the timeline's columns.

    ``time`` is the local hardware-clock reading in seconds.  ``host`` is
    the host the record was produced on (needed for clock synchronization
    when a node restarts on a different host).  Exactly one of
    ``event``/``new_state`` (for state changes) or ``fault`` (for fault
    injections) is populated, depending on ``kind``.

    A :class:`LocalTimeline` keeps no records: it builds these when its
    :attr:`~LocalTimeline.records` (or a selector) is asked for.
    """

    kind: RecordKind
    time: float
    host: str
    event: str | None = None
    new_state: str | None = None
    fault: str | None = None
    note: str | None = None

    def is_state_change(self) -> bool:
        """Whether this record is a state change."""
        return self.kind is RecordKind.STATE_CHANGE

    def is_fault_injection(self) -> bool:
        """Whether this record is a fault injection."""
        return self.kind is RecordKind.FAULT_INJECTION


#: Builds a :class:`TimelineRecord` from one 7-tuple of its fields without
#: the frame of the generated ``__new__`` (a Python function on CPython).
make_record = partial(tuple.__new__, TimelineRecord)


@dataclass
class LocalTimeline:
    """The recorder output of one state machine for one experiment.

    The records are six parallel columns, one entry per record in
    recording order, named after the :class:`TimelineRecord` fields:
    ``kind`` (:class:`RecordKind` members), ``time``, ``host``, ``event``,
    ``new_state`` and ``fault`` (``None`` where a record kind has no
    value).  The recorder appends to them and the store codecs fill them
    whole; :attr:`records` and the selectors build record views.
    """

    machine: str
    state_machines: tuple[str, ...] = ()
    global_states: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    faults: FaultSpecification = field(default_factory=FaultSpecification)
    notes: list[str] = field(default_factory=list)
    kind: list[RecordKind] = field(default_factory=list)
    time: list[float] = field(default_factory=list)
    host: list[str] = field(default_factory=list)
    event: list[str | None] = field(default_factory=list)
    new_state: list[str | None] = field(default_factory=list)
    fault: list[str | None] = field(default_factory=list)

    @property
    def columns(self) -> tuple[list, list, list, list, list, list]:
        """The record columns, in :class:`TimelineRecord` field order."""
        return self.kind, self.time, self.host, self.event, self.new_state, self.fault

    @property
    def records(self) -> list[TimelineRecord]:
        """Every record in recording order, built from the columns."""
        return list(map(make_record, zip(*self.columns, repeat(None))))

    def add_state_change(self, event: str, new_state: str, time: float, host: str) -> TimelineRecord:
        """Append a state-change record and return a view of it."""
        return self._append(
            make_record((RecordKind.STATE_CHANGE, time, host, event, new_state, None, None))
        )

    def add_fault_injection(self, fault: str, time: float, host: str) -> TimelineRecord:
        """Append a fault-injection record and return a view of it."""
        return self._append(
            make_record((RecordKind.FAULT_INJECTION, time, host, None, None, fault, None))
        )

    def _append(self, record: TimelineRecord) -> TimelineRecord:
        kind, time, host, event, new_state, fault, _ = record
        self.kind.append(kind)
        self.time.append(time)
        self.host.append(host)
        self.event.append(event)
        self.new_state.append(new_state)
        self.fault.append(fault)
        return record

    def add_note(self, text: str) -> None:
        """Attach a free-form user note to the timeline."""
        self.notes.append(text)

    def state_changes(self) -> list[TimelineRecord]:
        """All state-change records in recording order."""
        return [record for record in self.records if record.is_state_change()]

    def fault_injections(self) -> list[TimelineRecord]:
        """All fault-injection records in recording order."""
        return [record for record in self.records if record.is_fault_injection()]

    def hosts(self) -> tuple[str, ...]:
        """Hosts this node executed on, in first-seen order."""
        return tuple(dict.fromkeys(self.host))

    def is_empty(self) -> bool:
        """Whether the timeline holds no records."""
        return not self.kind

    def final_state(self) -> str | None:
        """The last recorded state, or ``None`` if no state change happened."""
        for kind, new_state in zip(reversed(self.kind), reversed(self.new_state)):
            if kind is RecordKind.STATE_CHANGE:
                return new_state
        return None


def _split_time(time_seconds: float) -> tuple[int, int]:
    nanoseconds = int(round(time_seconds * _NANOSECONDS))
    if nanoseconds < 0:
        raise TimelineFormatError(f"cannot encode negative timestamp {time_seconds}")
    return nanoseconds >> 32, nanoseconds & 0xFFFFFFFF

def _join_time(high: int, low: int) -> float:
    return ((high << 32) | low) / _NANOSECONDS


def format_local_timeline(timeline: LocalTimeline) -> str:
    """Serialize a local timeline into the paper's file format."""
    lines: list[str] = [timeline.machine]

    lines.append("state_machine_list")
    for index, name in enumerate(timeline.state_machines):
        lines.append(f"{index} {name}")
    lines.append("end_state_machine_list")

    lines.append("global_state_list")
    for index, name in enumerate(timeline.global_states):
        lines.append(f"{index} {name}")
    lines.append("end_global_state_list")

    lines.append("event_list")
    for index, name in enumerate(timeline.events):
        lines.append(f"{index} {name}")
    lines.append("end_event_list")

    lines.append("fault_list")
    for index, fault in enumerate(timeline.faults):
        lines.append(f"{index} {fault.name} {fault.expression.to_text()} {fault.trigger.value}")
    lines.append("end_fault_list")

    lines.append("local_timeline")
    event_index = {name: i for i, name in enumerate(timeline.events)}
    state_index = {name: i for i, name in enumerate(timeline.global_states)}
    fault_index = {fault.name: i for i, fault in enumerate(timeline.faults)}
    current_host: str | None = None
    for record in timeline.records:
        if record.host != current_host:
            lines.append(f"HOST {record.host}")
            current_host = record.host
        high, low = _split_time(record.time)
        if record.is_state_change():
            if record.event not in event_index:
                raise TimelineFormatError(
                    f"{timeline.machine}: event {record.event!r} missing from the event list"
                )
            if record.new_state not in state_index:
                raise TimelineFormatError(
                    f"{timeline.machine}: state {record.new_state!r} missing from the state list"
                )
            lines.append(
                f"{int(RecordKind.STATE_CHANGE)} {event_index[record.event]} "
                f"{state_index[record.new_state]} {high} {low}"
            )
        else:
            if record.fault not in fault_index:
                raise TimelineFormatError(
                    f"{timeline.machine}: fault {record.fault!r} missing from the fault list"
                )
            lines.append(
                f"{int(RecordKind.FAULT_INJECTION)} {fault_index[record.fault]} {high} {low}"
            )
    for note in timeline.notes:
        lines.append(f"NOTE {note}")
    lines.append("end_local_timeline")
    return "\n".join(lines) + "\n"


def parse_local_timeline(text: str) -> LocalTimeline:
    """Parse a local-timeline file back into a :class:`LocalTimeline`."""
    lines = [line.rstrip("\n") for line in text.splitlines()]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise TimelineFormatError("empty local timeline file")
    index = 0
    machine = lines[index].strip()
    index += 1

    def read_section(start: str, end: str) -> list[str]:
        nonlocal index
        if index >= len(lines) or lines[index].strip() != start:
            found = lines[index].strip() if index < len(lines) else "<end of file>"
            raise TimelineFormatError(f"expected {start!r}, found {found!r}")
        index += 1
        body: list[str] = []
        while index < len(lines) and lines[index].strip() != end:
            body.append(lines[index].strip())
            index += 1
        if index >= len(lines):
            raise TimelineFormatError(f"missing {end!r}")
        index += 1
        return body

    def parse_indexed(body: list[str], section: str) -> tuple[str, ...]:
        names: list[str] = []
        for position, line in enumerate(body):
            tokens = line.split()
            if len(tokens) != 2 or not tokens[0].isdigit():
                raise TimelineFormatError(f"{section}: malformed entry {line!r}")
            if int(tokens[0]) != position:
                raise TimelineFormatError(f"{section}: indices must be consecutive from 0")
            names.append(tokens[1])
        return tuple(names)

    state_machines = parse_indexed(read_section("state_machine_list", "end_state_machine_list"),
                                   "state_machine_list")
    global_states = parse_indexed(read_section("global_state_list", "end_global_state_list"),
                                  "global_state_list")
    events = parse_indexed(read_section("event_list", "end_event_list"), "event_list")

    fault_body = read_section("fault_list", "end_fault_list")
    fault_definitions: list[FaultDefinition] = []
    for position, line in enumerate(fault_body):
        tokens = line.split()
        if len(tokens) < 4 or not tokens[0].isdigit():
            raise TimelineFormatError(f"fault_list: malformed entry {line!r}")
        if int(tokens[0]) != position:
            raise TimelineFormatError("fault_list: indices must be consecutive from 0")
        name = tokens[1]
        trigger = FaultTrigger.from_text(tokens[-1])
        expression = parse_expression(" ".join(tokens[2:-1]))
        fault_definitions.append(FaultDefinition(name=name, expression=expression, trigger=trigger))
    faults = FaultSpecification.from_definitions(fault_definitions)

    timeline_body = read_section("local_timeline", "end_local_timeline")
    timeline = LocalTimeline(
        machine=machine,
        state_machines=state_machines,
        global_states=global_states,
        events=events,
        faults=faults,
    )
    current_host = "unknown"
    for line in timeline_body:
        tokens = line.split()
        if tokens[0] == "HOST":
            if len(tokens) != 2:
                raise TimelineFormatError(f"malformed HOST directive {line!r}")
            current_host = tokens[1]
            continue
        if tokens[0] == "NOTE":
            timeline.add_note(line[len("NOTE "):])
            continue
        kind = int(tokens[0])
        if kind == int(RecordKind.STATE_CHANGE):
            if len(tokens) != 5:
                raise TimelineFormatError(f"malformed STATE_CHANGE record {line!r}")
            event_idx, state_idx, high, low = (int(token) for token in tokens[1:])
            timeline.add_state_change(
                event=events[event_idx],
                new_state=global_states[state_idx],
                time=_join_time(high, low),
                host=current_host,
            )
        elif kind == int(RecordKind.FAULT_INJECTION):
            if len(tokens) != 4:
                raise TimelineFormatError(f"malformed FAULT_INJECTION record {line!r}")
            fault_idx, high, low = (int(token) for token in tokens[1:])
            timeline.add_fault_injection(
                fault=fault_definitions[fault_idx].name,
                time=_join_time(high, low),
                host=current_host,
            )
        else:
            raise TimelineFormatError(f"unknown record type {kind} in line {line!r}")
    return timeline
