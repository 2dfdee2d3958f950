"""Pickle-free wire codec for the parent ↔ worker-process pipes.

Every message is one *frame*: a single kind byte followed by a kind-specific
payload, shipped with ``Connection.send_bytes`` (the pipe does the length
framing).  The hot path — one :data:`SERVE_BATCH` frame out per coalesced
micro-batch, one :data:`RESPONSE_BATCH` (or one :data:`ERROR`) frame back,
:data:`FEEDBACK` replication — is hand-packed with ``struct`` and raw array
bytes: no pickle opcodes to parse, no class lookups in the child, no
surprise payloads if a request context carries numpy scalar fields (they
are normalised to plain scalars on encode).  A batch frame is a count
followed by length-prefixed :func:`encode_serve` / :func:`encode_serve_response`
*elements*, each tagged with its position, which the decoder checks.
Control frames (swap / stats / sync / lifecycle) are cold and carry
canonical JSON.

Errors cross the boundary as ``{"type", "message"}``; only exception types
in :data:`ERROR_TYPES` are reconstructed as themselves (so a queue-full
:class:`ClusterOverloadError` raised in a worker is the *same* type the
thread path raises), anything else degrades to ``RuntimeError`` with the
original type name prefixed — a worker cannot make the parent instantiate
an arbitrary class.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ...data.world import RequestContext
from ..pipeline import ServeRequest, ServeResponse
from .worker import ClusterOverloadError

__all__ = [
    "ERROR_TYPES",
    "Frame",
    "decode_batch",
    "decode_control",
    "decode_error",
    "decode_feedback",
    "decode_frame",
    "decode_serve",
    "decode_serve_response",
    "encode_batch",
    "encode_control",
    "encode_error",
    "encode_feedback",
    "encode_serve",
    "encode_serve_response",
]

# ---------------------------------------------------------------------- #
# frame kinds
# ---------------------------------------------------------------------- #
SERVE_BATCH = b"B"    # parent -> child: one micro-batch (count + SERVE elements)
RESPONSE_BATCH = b"b"  # child -> parent: its responses (count + RESPONSE elements)
SERVE = b"S"          # batch element: one request (position + envelope)
RESPONSE = b"R"       # batch element: one served response (position + arrays)
ERROR = b"E"          # child -> parent: the frame it answers failed (error JSON)
FEEDBACK = b"F"       # parent -> child: replicated feedback event (seq + event)
SWAP = b"W"           # parent -> child: hot-swap onto a new segment manifest
SWAPPED = b"w"        # child -> parent: swap acknowledged
STATS = b"T"          # parent -> child: request stats
STATS_REPLY = b"t"    # child -> parent: counters + StageMetrics payload
SYNC = b"Y"           # parent -> child: barrier probe
SYNC_REPLY = b"y"     # child -> parent: applied seq + state fingerprint
STOP = b"Q"           # parent -> child: drain and exit
READY = b"K"          # child -> parent: boot complete (recovery summary)
FATAL = b"X"          # child -> parent: unrecoverable worker error

#: Frame kinds whose payload is canonical JSON (everything but the hot path).
_JSON_KINDS = frozenset((SWAP, SWAPPED, STATS, STATS_REPLY, SYNC, SYNC_REPLY,
                         STOP, READY, FATAL))

#: Exception types allowed to rehydrate as themselves on the parent side.
ERROR_TYPES: Dict[str, Type[BaseException]] = {
    "ClusterOverloadError": ClusterOverloadError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
}

Frame = Tuple[bytes, bytes]  # (kind, payload)

_CORR = struct.Struct("<Q")
#: user_index, day, hour, time_period, city, latitude, longitude.
_CTX = struct.Struct("<qqqqqdd")
_LEN = struct.Struct("<I")
_SEQ = struct.Struct("<Q")


def decode_frame(blob: bytes) -> Frame:
    """Split one received buffer into ``(kind, payload)``."""
    if not blob:
        raise ValueError("empty frame")
    return bytes(blob[:1]), bytes(blob[1:])


# ---------------------------------------------------------------------- #
# primitives
# ---------------------------------------------------------------------- #
def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _LEN.pack(len(raw)) + raw


def _unpack_str(blob: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _LEN.unpack_from(blob, offset)
    offset += _LEN.size
    return blob[offset : offset + length].decode("utf-8"), offset + length


def _pack_array(array: Optional[np.ndarray]) -> bytes:
    if array is None:
        return b"\x00"
    array = np.ascontiguousarray(array)
    parts = [b"\x01", _pack_str(array.dtype.str), _LEN.pack(array.ndim)]
    for dim in array.shape:
        parts.append(_LEN.pack(int(dim)))
    parts.append(_LEN.pack(array.nbytes))
    parts.append(array.tobytes())
    return b"".join(parts)


def _unpack_array(blob: bytes, offset: int) -> Tuple[Optional[np.ndarray], int]:
    flag = blob[offset]
    offset += 1
    if flag == 0:
        return None, offset
    dtype_str, offset = _unpack_str(blob, offset)
    (ndim,) = _LEN.unpack_from(blob, offset)
    offset += _LEN.size
    shape: List[int] = []
    for _ in range(ndim):
        (dim,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        shape.append(dim)
    (nbytes,) = _LEN.unpack_from(blob, offset)
    offset += _LEN.size
    array = (
        np.frombuffer(blob, dtype=np.dtype(dtype_str), count=int(np.prod(shape)) if shape else 1,
                      offset=offset)
        .reshape(shape)
        .copy()
    )
    return array, offset + nbytes


def _pack_request(request: ServeRequest) -> bytes:
    context = request.context
    return b"".join(
        (
            _CTX.pack(
                int(context.user_index), int(context.day), int(context.hour),
                int(context.time_period), int(context.city),
                float(context.latitude), float(context.longitude),
            ),
            _pack_str(str(context.geohash)),
            _pack_str(str(request.request_id)),
            _pack_str(str(request.scenario)),
        )
    )


def _unpack_request(blob: bytes, offset: int) -> Tuple[ServeRequest, int]:
    fields = _CTX.unpack_from(blob, offset)
    offset += _CTX.size
    geohash, offset = _unpack_str(blob, offset)
    request_id, offset = _unpack_str(blob, offset)
    scenario, offset = _unpack_str(blob, offset)
    context = RequestContext(
        user_index=fields[0], day=fields[1], hour=fields[2],
        time_period=fields[3], city=fields[4],
        latitude=fields[5], longitude=fields[6], geohash=geohash,
    )
    return ServeRequest(context=context, request_id=request_id, scenario=scenario), offset


# ---------------------------------------------------------------------- #
# hot-path frames
# ---------------------------------------------------------------------- #
# ``corr`` tags an element with its position in the batch frame carrying it.
def encode_serve(corr: int, request: ServeRequest) -> bytes:
    return SERVE + _CORR.pack(corr) + _pack_request(request)


def decode_serve(payload: bytes) -> Tuple[int, ServeRequest]:
    (corr,) = _CORR.unpack_from(payload, 0)
    request, _ = _unpack_request(payload, _CORR.size)
    return corr, request


def encode_serve_response(corr: int, response: ServeResponse) -> bytes:
    return b"".join(
        (
            RESPONSE,
            _CORR.pack(corr),
            _pack_request(response.request),
            _pack_array(response.candidates),
            _pack_array(response.items),
            _pack_array(response.scores),
        )
    )


def decode_serve_response(payload: bytes) -> Tuple[int, ServeResponse]:
    (corr,) = _CORR.unpack_from(payload, 0)
    request, offset = _unpack_request(payload, _CORR.size)
    candidates, offset = _unpack_array(payload, offset)
    items, offset = _unpack_array(payload, offset)
    scores, _ = _unpack_array(payload, offset)
    return corr, ServeResponse(
        request=request, candidates=candidates, items=items, scores=scores
    )


# ---------------------------------------------------------------------- #
# batch frames: count + length-prefixed, position-tagged elements
# ---------------------------------------------------------------------- #
def encode_batch(kind: bytes, encode: Callable, values: Sequence) -> bytes:
    """One micro-batch in one frame: ``kind`` is :data:`SERVE_BATCH` with
    ``encode=encode_serve`` over requests, or :data:`RESPONSE_BATCH` with
    ``encode=encode_serve_response`` over the responses, in the same order."""
    parts = [kind, _LEN.pack(len(values))]
    for position, value in enumerate(values):
        element = encode(position, value)
        parts += (_LEN.pack(len(element)), element)
    return b"".join(parts)


def decode_batch(payload: bytes, decode: Callable) -> list:
    """Decode a batch payload with ``decode_serve`` / ``decode_serve_response``.

    The frame is checked before anything in it is trusted: every declared
    length must fit in the bytes present, the count must match what the
    payload holds exactly, and element ``i`` must carry position ``i``.
    """
    if len(payload) < _LEN.size:
        raise ValueError("truncated batch frame: no element count")
    (count,) = _LEN.unpack_from(payload, 0)
    offset = _LEN.size
    values = []
    for position in range(count):
        if offset + _LEN.size > len(payload):
            raise ValueError(f"batch frame declares {count} elements, holds {position}")
        (size,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        if size == 0 or offset + size > len(payload):
            raise ValueError(f"truncated batch element {position}")
        tag, value = decode(payload[offset + 1 : offset + size])  # skip the kind byte
        if tag != position:
            raise ValueError(f"batch element {position} carries position {tag}")
        values.append(value)
        offset += size
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} trailing bytes after batch frame")
    return values


def encode_error(error: BaseException) -> bytes:
    """The reply to a frame the child could not answer (a whole batch, a swap)."""
    body = json.dumps(
        {"type": type(error).__name__, "message": str(error)},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return ERROR + body


def decode_error(payload: bytes) -> BaseException:
    body = json.loads(payload.decode("utf-8"))
    type_name = str(body.get("type", "RuntimeError"))
    message = str(body.get("message", ""))
    exc_type = ERROR_TYPES.get(type_name)
    if exc_type is None:
        return RuntimeError(f"{type_name}: {message}")
    return exc_type(message)


def encode_feedback(sequence: int, event_bytes: bytes) -> bytes:
    """Feedback replication frame; ``event_bytes`` is the journal's canonical
    :meth:`FeedbackEvent.to_bytes` payload, reused verbatim so the wire and
    disk forms can never disagree."""
    return FEEDBACK + _SEQ.pack(sequence) + event_bytes


def decode_feedback(payload: bytes) -> Tuple[int, bytes]:
    (sequence,) = _SEQ.unpack_from(payload, 0)
    return sequence, payload[_SEQ.size :]


# ---------------------------------------------------------------------- #
# control frames (cold path, JSON payloads)
# ---------------------------------------------------------------------- #
def encode_control(kind: bytes, payload: Optional[dict] = None) -> bytes:
    if kind not in _JSON_KINDS:
        raise ValueError(f"not a control frame kind: {kind!r}")
    body = json.dumps(payload or {}, sort_keys=True, separators=(",", ":"))
    return kind + body.encode("utf-8")


def decode_control(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8")) if payload else {}
