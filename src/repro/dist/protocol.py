"""Length-prefixed JSON frame codec.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON holding one object with a string ``type`` field.

The execution engine does not use this module: workers are forked from
the coordinating process and exchange pickled messages over inherited
pipes (:mod:`repro.dist.worker`).  The codec is kept because the frozen
end-to-end benchmark (``benchmarks/e2e``) probes :func:`encode_frame` and
:func:`decode_frames` by name; it can go when that benchmark drops the
two ``dist.protocol.*`` layer metrics.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterator

from repro.errors import ProtocolError

#: Frames above this size indicate corruption (or a runaway payload), not
#: legitimate traffic; both directions refuse them instead of allocating blindly.
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """One message as a length-prefixed JSON frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES}); payload corrupt or unbounded"
        )
    return _LENGTH.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable protocol frame: {error}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError(f"protocol frame is not a typed message: {message!r}")
    return message


def decode_frames(data: bytes) -> Iterator[dict[str, Any]]:
    """Decode every complete frame in ``data``; a cut-off frame is an error."""
    offset = 0
    while offset + _LENGTH.size <= len(data):
        (length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        if offset + length > len(data):
            raise ProtocolError("truncated protocol frame")
        yield _decode_payload(data[offset : offset + length])
        offset += length
