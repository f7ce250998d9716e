"""On-disk record format of the campaign store: one JSON object per experiment.

Every completed experiment is persisted as a single JSON line carrying the
full :class:`~repro.core.campaign.ExperimentResult` payload — local
timelines, synchronization messages, host clock parameters, completion
flags — plus a SHA-256 checksum of the canonical payload encoding.  The
format is designed around two hard requirements:

* **Bit-exact round trips.**  The analysis phase must produce *identical*
  results whether it consumes a freshly simulated experiment or one loaded
  from disk, so every float is serialized through Python's shortest
  round-trip ``repr`` (what :mod:`json` does natively) and decoded back to
  the very same IEEE-754 double.  No nanosecond quantization, no text
  formatting of timestamps.
* **Crash tolerance.**  A campaign can be killed mid-write.  Because each
  record is one self-checksummed line, a truncated or corrupted trailing
  line is detected (the checksum cannot match) and treated as
  never-written: the resume machinery simply re-runs that experiment and
  appends a fresh record.

The module is deliberately free of any I/O: it maps
:class:`ExperimentResult` to and from plain dictionaries and encodes or
decodes single record lines.  :mod:`repro.store.campaign_store` owns the
files.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Any

from repro.analysis.clock_sync import SyncTable
from repro.core.campaign import ExperimentResult
from repro.core.expression import parse_expression
from repro.core.specs.fault_spec import (
    FaultDefinition,
    FaultSpecification,
    FaultTrigger,
)
from repro.core.timeline import LocalTimeline, RecordKind
from repro.errors import SpecificationError, StoreIntegrityError
from repro.sim.clock import ClockParameters
from repro.sim.topology import NetworkFaultSpec

#: Version stamp embedded in every record line; bumped on any change that
#: an old reader could misinterpret.  Version 2 added an optional fourth
#: element (the ``network:`` fault token) to each fault entry, which a
#: version-1 reader would crash unpacking — hence the bump.
RECORD_FORMAT_VERSION = 2

#: Versions this reader can decode.  Version-1 records (three-element
#: fault entries, no network faults) remain fully readable.
READABLE_FORMAT_VERSIONS = frozenset({1, RECORD_FORMAT_VERSION})

#: Value-to-member table for the record-kind column.  ``RecordKind(value)``
#: goes through the enum metaclass on every call, which dominates decoding
#: a million-row record table; a plain dict lookup does not.
RECORD_KINDS = {kind.value: kind for kind in RecordKind}


def _canonical(payload: dict[str, Any]) -> str:
    """The canonical encoding a record's checksum is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------


def timeline_meta(timeline: LocalTimeline) -> dict[str, Any]:
    """Everything :func:`timeline_to_dict` maps but the record table."""
    return {
        "machine": timeline.machine,
        "state_machines": list(timeline.state_machines),
        "global_states": list(timeline.global_states),
        "events": list(timeline.events),
        "faults": [
            [fault.name, fault.expression.to_text(), fault.trigger.value]
            + ([fault.network.to_token()] if fault.network is not None else [])
            for fault in timeline.faults
        ],
        "notes": list(timeline.notes),
    }


def timeline_to_dict(timeline: LocalTimeline) -> dict[str, Any]:
    """Map one local timeline to a JSON-serializable dictionary.

    Records are stored as compact six-element lists
    ``[kind, time, host, event, new_state, fault]`` — the timeline's
    columns read row by row — because they dominate the record volume of
    a campaign; everything else keeps named keys.
    """
    data = timeline_meta(timeline)
    data["records"] = [
        [int(kind), time, host, event, new_state, fault]
        for kind, time, host, event, new_state, fault in zip(*timeline.columns)
    ]
    return data


@lru_cache(maxsize=256)
def _fault_specification(entries: tuple[tuple[str, ...], ...]) -> FaultSpecification:
    """Decode a timeline's fault entries, once per distinct entry tuple.

    Every timeline of every experiment of a study carries the same entries,
    and parsing their expressions is the expensive part; the specification
    and everything inside it is frozen, so decoded timelines share one.  An
    entry that fails to decode raises and is therefore never cached.
    """
    return FaultSpecification.from_definitions(
        FaultDefinition(
            name=entry[0],
            expression=parse_expression(entry[1]),
            trigger=FaultTrigger(entry[2]),
            # Entry 3 (optional, absent in pre-topology records) is the
            # network fault token of a topology-mutating fault.
            network=NetworkFaultSpec.from_token(entry[3]) if len(entry) > 3 else None,
        )
        for entry in entries
    )


def timeline_from_dict(data: dict[str, Any]) -> LocalTimeline:
    """Rebuild a :class:`LocalTimeline` from :func:`timeline_to_dict` output.

    The record rows are transposed into the timeline's columns in one
    pass; every row must hold the same six fields.
    """
    timeline = LocalTimeline(
        machine=data["machine"],
        state_machines=tuple(data["state_machines"]),
        global_states=tuple(data["global_states"]),
        events=tuple(data["events"]),
        faults=_fault_specification(tuple(map(tuple, data["faults"]))),
        notes=list(data["notes"]),
    )
    rows = data["records"]
    if rows:
        kind, time, host, event, new_state, fault = zip(*rows, strict=True)
        timeline.kind = list(map(RECORD_KINDS.__getitem__, kind))
        timeline.time = list(time)
        timeline.host = list(host)
        timeline.event = list(event)
        timeline.new_state = list(new_state)
        timeline.fault = list(fault)
    return timeline


# ---------------------------------------------------------------------------
# Experiment results
# ---------------------------------------------------------------------------


def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Map one :class:`ExperimentResult` to a JSON-serializable dictionary."""
    return {
        "study": result.study,
        "index": result.index,
        "seed": result.seed,
        "local_timelines": {
            machine: timeline_to_dict(timeline)
            for machine, timeline in result.local_timelines.items()
        },
        "sync_messages": [
            [m.sender, m.receiver, m.send_time, m.receive_time]
            for m in result.sync_messages
        ],
        "hosts": list(result.hosts),
        "reference_host": result.reference_host,
        "host_clock_parameters": {
            host: [clock.offset, clock.rate, clock.granularity]
            for host, clock in result.host_clock_parameters.items()
        },
        "completed": result.completed,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "duration": result.duration,
        "stats": dict(result.stats),
    }


def result_from_dict(data: dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    sync_messages = SyncTable()
    for sender, receiver, send_time, receive_time in data["sync_messages"]:
        sync_messages.append(sender, receiver, send_time, receive_time)
    return ExperimentResult(
        study=data["study"],
        index=data["index"],
        seed=data["seed"],
        local_timelines={
            machine: timeline_from_dict(timeline)
            for machine, timeline in data["local_timelines"].items()
        },
        sync_messages=sync_messages,
        hosts=tuple(data["hosts"]),
        reference_host=data["reference_host"],
        host_clock_parameters={
            host: ClockParameters(offset=offset, rate=rate, granularity=granularity)
            for host, (offset, rate, granularity) in data["host_clock_parameters"].items()
        },
        completed=data["completed"],
        aborted=data["aborted"],
        abort_reason=data["abort_reason"],
        duration=data["duration"],
        stats=dict(data["stats"]),
    )


# ---------------------------------------------------------------------------
# Record lines
# ---------------------------------------------------------------------------


def encode_record(result: ExperimentResult) -> str:
    """Encode one experiment as a single self-checksummed JSONL line."""
    payload = result_to_dict(result)
    envelope = {
        "format": RECORD_FORMAT_VERSION,
        "sha256": _checksum(payload),
        "payload": payload,
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def decode_record(line: str) -> ExperimentResult:
    """Decode one record line, verifying its checksum.

    Raises :class:`~repro.errors.StoreIntegrityError` on malformed JSON,
    unknown format versions, or checksum mismatches (all three are what a
    torn write or bit rot look like; callers treat such lines as absent).
    """
    try:
        envelope = json.loads(line)
    except ValueError as error:
        raise StoreIntegrityError(f"unparsable record line: {error}") from None
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise StoreIntegrityError("record line is not a store envelope")
    if envelope.get("format") not in READABLE_FORMAT_VERSIONS:
        raise StoreIntegrityError(
            f"unsupported record format {envelope.get('format')!r} "
            f"(this reader understands {sorted(READABLE_FORMAT_VERSIONS)})"
        )
    payload = envelope["payload"]
    digest = _checksum(payload)
    if digest != envelope.get("sha256"):
        raise StoreIntegrityError(
            "record checksum mismatch (torn write or corrupted file)"
        )
    try:
        return result_from_dict(payload)
    except (LookupError, TypeError, ValueError, SpecificationError) as error:
        raise StoreIntegrityError(f"malformed record payload: {error}") from None
