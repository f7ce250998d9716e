"""Columnar record codec of the campaign store: structured arrays per block.

The JSONL codec (:mod:`repro.store.format`) spends most of its bytes — and
most of its encode/decode time — on the timeline record table, which
dominates every experiment payload at campaign scale.  The columnar codec
keeps the exact same record semantics (one self-checksummed block per
experiment, later blocks supersede earlier ones, torn trailing writes are
detected and treated as never-written) but stores the two bulk tables as
numpy structured arrays in raw little-endian bytes:

* the **record table** — ``(kind, time, host, event, state, fault)`` per
  timeline record, with the string columns indexed into a per-block pool;
* the **sync table** — ``(sender, receiver, send_time, receive_time)`` per
  synchronization message.

Everything else (study, seed, clock parameters, stats, the string pool,
per-timeline metadata) travels in a canonical JSON *meta line*, encoded by
the very same :func:`~repro.store.format.result_to_dict` mapping the JSONL
codec uses, so the two codecs are bit-exact against each other by
construction: floats in the tables are raw IEEE-754 doubles, floats in the
meta line round-trip through ``repr`` exactly as in JSONL.  The record
table is filled from (and read back into) ``result_to_dict``'s rows; the
sync table is the experiment's :class:`~repro.analysis.clock_sync.SyncTable`
column for column — written from its arrays, read back as views of the
block's bytes — and never passes through per-message rows or objects.

On-disk layout of ``records/<slug>.columnar``::

    #repro-columnar-store 1\n                        # magic line
    {"engine":…,"format":…,"length":…,"sha256":…}\n  # block header (JSON)
    <length bytes of payload>\n                      # meta line + raw arrays
    {…next block header…}\n
    …

Each block's ``sha256`` covers its payload bytes, so a torn trailing block
(killed campaign) fails verification and is ignored; :func:`scan_blocks`
also reports where the valid prefix ends so a writer can heal the tail by
truncating before appending.  Unlike JSONL there is no per-line framing to
resynchronize on, so a corrupt block in the *middle* of a file ends the
valid prefix — every block after it is reported corrupt.

Blocks are serialized with numpy (a hard dependency of the simulator).
Every header carries ``"engine": "numpy"``; a block naming any other
engine is rejected as corrupt.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analysis.clock_sync import SyncTable
from repro.core.campaign import ExperimentResult
from repro.errors import StoreError, StoreIntegrityError
from repro.store.format import result_from_dict, result_to_dict

try:  # numpy is a hard dependency of the simulator, but probe anyway
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a baked-in dependency
    _np = None  # type: ignore[assignment]

#: Version stamp embedded in every block header; bumped on any change that
#: an old reader could misinterpret.
COLUMNAR_FORMAT_VERSION = 1

#: Versions this reader can decode (kept in sync by lint rule R005).
READABLE_COLUMNAR_VERSIONS = frozenset({COLUMNAR_FORMAT_VERSION})

#: First line of every columnar store file.
MAGIC_LINE = b"#repro-columnar-store 1\n"

#: The record table: one row per timeline record, string columns as
#: indices into the block's pool (index 0 is always ``None``).  Explicit
#: little-endian field types keep the raw bytes portable.
RECORD_DTYPE_FIELDS = [
    ("kind", "<i8"),
    ("time", "<f8"),
    ("host", "<i4"),
    ("event", "<i4"),
    ("state", "<i4"),
    ("fault", "<i4"),
]

#: The sync-message table: one row per synchronization message.
SYNC_DTYPE_FIELDS = [
    ("sender", "<i4"),
    ("receiver", "<i4"),
    ("send_time", "<f8"),
    ("receive_time", "<f8"),
]


def _require_numpy() -> Any:
    if _np is None:  # pragma: no cover - numpy is a baked-in dependency
        raise StoreError(
            "the columnar store codec requires numpy; install it or use the "
            "'jsonl' codec"
        )
    return _np


# ---------------------------------------------------------------------------
# Blocks: one experiment record, framed and checksummed
# ---------------------------------------------------------------------------


def encode_block(result: ExperimentResult) -> bytes:
    """Encode one experiment as a framed, self-checksummed columnar block.

    The meta line is the :func:`result_to_dict` payload with the two bulk
    tables replaced by row counts, plus the string pool (index 0 is always
    ``None``, every other entry is appended on first use).  Record rows
    are concatenated across timelines in *sorted* machine order — the
    order the canonical (sort-keys) meta line serializes the timelines
    in, so :func:`decode_block` can slice the concatenation back apart
    without storing offsets.  The sync table never becomes rows: its two
    time columns are written as they are and its host codes are remapped
    into the block pool, hosts interned in first-use order (sender before
    receiver, message by message).
    """
    np = _require_numpy()
    table = SyncTable.of(result.sync_messages)
    meta = result_to_dict(replace(result, sync_messages=SyncTable()))
    pool: dict[str | None, int] = {None: 0}
    intern = pool.setdefault

    record_rows: list[tuple] = []
    for machine in sorted(meta["local_timelines"]):
        timeline = meta["local_timelines"][machine]
        rows = timeline.pop("records")
        timeline["record_count"] = len(rows)
        record_rows.extend(
            (
                kind,
                time,
                intern(host, len(pool)),
                intern(event, len(pool)),
                intern(state, len(pool)),
                intern(fault, len(pool)),
            )
            for kind, time, host, event, state, fault in rows
        )
    sender, receiver = np.asarray(table.sender), np.asarray(table.receiver)
    pool_code = np.zeros(len(table.hosts), dtype="<i4")
    for code in dict.fromkeys(np.column_stack((sender, receiver)).ravel().tolist()):
        pool_code[code] = intern(table.hosts[code], len(pool))
    meta["sync_messages"] = len(table)
    meta["pool"] = list(pool)

    records = np.array(record_rows, dtype=np.dtype(RECORD_DTYPE_FIELDS))
    sync = np.empty(len(table), dtype=np.dtype(SYNC_DTYPE_FIELDS))
    sync["sender"], sync["receiver"] = pool_code[sender], pool_code[receiver]
    sync["send_time"], sync["receive_time"] = table.send_time, table.receive_time
    meta_line = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    payload = b"\n".join([meta_line.encode("utf-8"), records.tobytes() + sync.tobytes()])
    header = {
        "engine": "numpy",
        "format": COLUMNAR_FORMAT_VERSION,
        "length": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return header_line.encode("utf-8") + b"\n" + payload + b"\n"


def _check_codes(table: Any, first: str, last: str, lowest: int, pool_size: int) -> None:
    """Reject a table whose string codes fall outside ``[lowest, pool_size)``.

    The code columns ``first`` .. ``last`` are adjacent ``<i4`` fields, so
    they are one slice of the table seen as rows of 32-bit words and two
    reductions check them all.
    """
    if not len(table):
        return
    fields = table.dtype.fields
    words = table.view("<i4").reshape(len(table), -1)
    codes = words[:, fields[first][1] // 4 : fields[last][1] // 4 + 1]
    if not lowest <= codes.min() <= codes.max() < pool_size:
        raise StoreIntegrityError(
            f"columnar block {first}..{last} codes leave the string pool "
            f"(valid: {lowest}..{pool_size - 1})"
        )


def decode_block(header: dict[str, Any], payload: bytes) -> ExperimentResult:
    """Decode one checksum-verified block payload back into a result."""
    if header.get("format") not in READABLE_COLUMNAR_VERSIONS:
        raise StoreIntegrityError(
            f"unsupported columnar format {header.get('format')!r} "
            f"(this reader understands {sorted(READABLE_COLUMNAR_VERSIONS)})"
        )
    if header.get("engine") != "numpy":
        raise StoreIntegrityError(
            f"unknown columnar engine {header.get('engine')!r} in block header"
        )
    try:
        np = _require_numpy()
        meta_line, _, body = payload.partition(b"\n")
        meta = json.loads(meta_line)
        pool = meta.pop("pool")
        record_dtype = np.dtype(RECORD_DTYPE_FIELDS)
        sync_dtype = np.dtype(SYNC_DTYPE_FIELDS)
        record_count = sum(
            timeline["record_count"] for timeline in meta["local_timelines"].values()
        )
        sync_count = meta["sync_messages"]
        split = record_count * record_dtype.itemsize
        expected = split + sync_count * sync_dtype.itemsize
        if len(body) != expected:
            raise StoreIntegrityError(
                f"columnar block body holds {len(body)} bytes where the meta "
                f"line promises {expected}"
            )
        records = np.frombuffer(body, dtype=record_dtype, count=record_count)
        sync = np.frombuffer(body[split:], dtype=sync_dtype, count=sync_count)
        # A negative code would index the pool from its end and an
        # oversized one would only fail when somebody reads the row.
        _check_codes(records, "host", "fault", 0, len(pool))
        _check_codes(sync, "sender", "receiver", 1, len(pool))
        # .tolist() materializes native Python ints/floats in one C pass per
        # column — the vectorized half of the decode; the Python half is the
        # row rebuild.
        rows = [
            [kind, time, pool[host], pool[event], pool[state], pool[fault]]
            for kind, time, host, event, state, fault in zip(
                *(records[name].tolist() for name, _ in RECORD_DTYPE_FIELDS)
            )
        ]
        cursor = 0
        # Sorted explicitly rather than trusting the meta line's key order:
        # the concatenation order is part of the format, not of the JSON.
        for machine in sorted(meta["local_timelines"]):
            timeline = meta["local_timelines"][machine]
            stop = cursor + timeline.pop("record_count")
            timeline["records"] = rows[cursor:stop]
            cursor = stop
        meta["sync_messages"] = ()
        result = result_from_dict(meta)
        # The sync table stays four column views of the block's bytes,
        # coded against the block pool.
        result.sync_messages = SyncTable(
            pool, sync["sender"], sync["receiver"], sync["send_time"], sync["receive_time"]
        )
        return result
    except StoreError:
        raise
    except Exception as error:
        raise StoreIntegrityError(f"malformed columnar block payload: {error}") from None


# ---------------------------------------------------------------------------
# Files: scanning, healing, appending
# ---------------------------------------------------------------------------


@dataclass
class ColumnarScan:
    """Outcome of scanning one columnar store file.

    ``valid_end`` is the byte offset where the file's valid prefix ends —
    the healing point: a writer truncates there before appending, so a
    torn trailing block can never corrupt the next record.
    """

    results: list[ExperimentResult] = field(default_factory=list)
    valid: int = 0
    corrupt: int = 0
    valid_end: int = 0


def scan_blocks(data: bytes) -> ColumnarScan:
    """Decode every valid block of a columnar store file's bytes.

    The valid prefix ends at the first framing violation (bad header
    line, short payload, checksum mismatch) — everything beyond it is
    counted as one corrupt tail.  A block whose framing and checksum hold
    but whose payload fails to decode is skipped (counted corrupt) and
    scanning continues, because the length framing is still trustworthy.
    """
    if not data.startswith(MAGIC_LINE):
        raise StoreIntegrityError(
            "not a columnar store file (missing magic line); refusing to scan"
        )
    scan = ColumnarScan(valid_end=len(MAGIC_LINE))
    offset = len(MAGIC_LINE)
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            scan.corrupt += 1
            return scan
        try:
            header = json.loads(data[offset:newline])
        except ValueError:
            scan.corrupt += 1
            return scan
        if not isinstance(header, dict) or not isinstance(header.get("length"), int):
            scan.corrupt += 1
            return scan
        start = newline + 1
        stop = start + header["length"]
        if stop + 1 > len(data) or data[stop : stop + 1] != b"\n":
            scan.corrupt += 1
            return scan
        payload = data[start:stop]
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            scan.corrupt += 1
            return scan
        offset = stop + 1
        scan.valid_end = offset
        try:
            scan.results.append(decode_block(header, payload))
        except StoreIntegrityError:
            scan.corrupt += 1
            continue
        scan.valid += 1
    return scan
