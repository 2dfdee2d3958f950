"""The one byte layout for what leaves a process: request contexts and 1-D arrays.

The worker pipe's frames, the feedback journal's records and the snapshot's
context lists (recent contexts, replay records) all write a
:class:`RequestContext`, and the arrays beside it, through this module.  Little-endian::

    context  <qqqqqdd  user_index, day, hour, time_period, city, latitude,
                       longitude; then geohash as a str
    str      <I        byte length, then the UTF-8 bytes
    array    B         dtype code: 0 for ``None`` (nothing follows), else a
                       key of :data:`DTYPES`; then <I count and the raw bytes

Only 1-D arrays of the :data:`DTYPES` cross: anything else is refused on the
encode side, and a reader builds no dtype the bytes name.  A reader takes
``(blob, offset)``, returns ``(value, next offset)`` and raises ``ValueError``
on a length that runs past the end; its caller rejects trailing bytes with
:func:`expect_end`.  So malformed input is a ``ValueError`` and nothing else.
"""

from __future__ import annotations

import struct

import numpy as np

from ..data.world import RequestContext

__all__ = [
    "DTYPES",
    "expect_end",
    "pack_array",
    "pack_context",
    "pack_contexts",
    "pack_str",
    "unpack",
    "unpack_array",
    "unpack_context",
    "unpack_contexts",
    "unpack_str",
]

#: Wire code -> dtype: the closed set of dtypes an array may cross as.
DTYPES = {1: np.dtype(np.int64), 2: np.dtype(np.float32), 3: np.dtype(np.float64),
          4: np.dtype(np.bool_)}
_CODES = {dtype: code for code, dtype in DTYPES.items()}
_BOOL = _CODES[np.dtype(np.bool_)]

_LENGTH = struct.Struct("<I")
_ARRAY = struct.Struct("<BI")  # dtype code, element count
_CONTEXT = struct.Struct("<qqqqqdd")


def _end(blob: bytes, offset: int, size: int) -> int:
    """Where ``size`` bytes from ``offset`` end; raises if past ``blob``'s end."""
    if offset + size > len(blob):
        raise ValueError(f"truncated: {size} bytes needed at offset {offset}, "
                         f"{max(len(blob) - offset, 0)} left")
    return offset + size


def unpack(layout: struct.Struct, blob: bytes, offset: int) -> tuple[tuple, int]:
    end = _end(blob, offset, layout.size)
    return layout.unpack_from(blob, offset), end


def expect_end(blob: bytes, offset: int) -> None:
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} trailing bytes")


def pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _LENGTH.pack(len(raw)) + raw


def unpack_str(blob: bytes, offset: int) -> tuple[str, int]:
    (length,), offset = unpack(_LENGTH, blob, offset)
    end = _end(blob, offset, length)
    return blob[offset:end].decode("utf-8"), end


def pack_context(context: RequestContext) -> bytes:
    """Numpy scalar fields are written as the plain values they hold."""
    return _CONTEXT.pack(
        int(context.user_index), int(context.day), int(context.hour),
        int(context.time_period), int(context.city),
        float(context.latitude), float(context.longitude),
    ) + pack_str(str(context.geohash))


def unpack_context(blob: bytes, offset: int) -> tuple[RequestContext, int]:
    fields, offset = unpack(_CONTEXT, blob, offset)
    geohash, offset = unpack_str(blob, offset)
    return RequestContext(*fields, geohash), offset


def pack_contexts(contexts) -> np.ndarray:
    """Contexts back to back, as the ``uint8`` array a snapshot stores."""
    return np.frombuffer(b"".join(map(pack_context, contexts)), dtype=np.uint8)


def unpack_contexts(packed: np.ndarray) -> list[RequestContext]:
    blob, contexts, offset = packed.tobytes(), [], 0
    while offset < len(blob):
        context, offset = unpack_context(blob, offset)
        contexts.append(context)
    return contexts


def pack_array(array: np.ndarray | None) -> bytes:
    if array is None:
        return b"\x00"
    code = _CODES.get(array.dtype)
    if code is None or array.ndim != 1:
        raise ValueError(f"a {array.ndim}-D {array.dtype} array cannot cross the wire "
                         f"(1-D {', '.join(map(str, DTYPES.values()))} only)")
    return _ARRAY.pack(code, len(array)) + array.tobytes()


def unpack_array(blob: bytes, offset: int) -> tuple[np.ndarray | None, int]:
    _end(blob, offset, 1)
    code = blob[offset]
    if code == 0:
        return None, offset + 1
    dtype = DTYPES.get(code)
    if dtype is None:
        raise ValueError(f"unknown array dtype code {code}")
    (count,), offset = unpack(_LENGTH, blob, offset + 1)
    end = _end(blob, offset, count * dtype.itemsize)
    if code == _BOOL and blob[offset:end].translate(None, b"\x00\x01"):
        raise ValueError("bool array holds a byte other than 0 or 1")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset).copy(), end
