"""Pickle-free wire codec for the parent ↔ worker-process pipes.

Every message is one *frame*: a single kind byte followed by a kind-specific
payload, shipped with ``Connection.send_bytes`` (the pipe does the length
framing).  The hot path — one :data:`SERVE_BATCH` frame out per coalesced
micro-batch, one :data:`RESPONSE_BATCH` (or one :data:`ERROR`) frame back,
:data:`FEEDBACK` replication — is built from :mod:`repro.serving.wire`'s
layouts: no pickle, no class lookups in the child.  A batch frame is a count
followed by length-prefixed, position-tagged elements, which the decoder
checks; a :data:`RESPONSE_BATCH` leads with the stage records of the
``run_many`` that served it (telemetry rides the reply).  :data:`FEEDBACK`
carries the journal's record bytes verbatim.  Control frames are cold and
carry canonical JSON.  Every decoder raises ``ValueError`` on a truncated,
overlong or trailing payload.

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
from typing import Callable, Dict, List, Sequence, Tuple, Type

from .. import wire
from ..pipeline import ServeRequest, ServeResponse, StageMetrics
from .worker import ClusterOverloadError

__all__ = [
    "ERROR_TYPES",
    "Frame",
    "decode_batch",
    "decode_control",
    "decode_error",
    "decode_feedback",
    "decode_frame",
    "decode_response_batch",
    "decode_serve",
    "decode_serve_response",
    "encode_batch",
    "encode_control",
    "encode_error",
    "encode_feedback",
    "encode_response_batch",
    "encode_serve",
    "encode_serve_response",
]

# ---------------------------------------------------------------------- #
# frame kinds
# ---------------------------------------------------------------------- #
SERVE_BATCH = b"B"    # parent -> child: one micro-batch (count + SERVE elements)
RESPONSE_BATCH = b"b"  # child -> parent: stage records + count + RESPONSE elements
SERVE = b"S"          # batch element: one request (position + envelope)
RESPONSE = b"R"       # batch element: one served response (position + arrays)
ERROR = b"E"          # child -> parent: the frame it answers failed (error JSON)
FEEDBACK = b"F"       # parent -> child: replicated feedback event (seq + event)
SWAP = b"W"           # parent -> child: hot-swap onto a new segment manifest
SWAPPED = b"w"        # child -> parent: swap acknowledged
SYNC = b"Y"           # parent -> child: barrier probe
SYNC_REPLY = b"y"     # child -> parent: applied seq + state fingerprint
STOP = b"Q"           # parent -> child: drain and exit
READY = b"K"          # child -> parent: boot complete (recovery summary)
FATAL = b"X"          # child -> parent: unrecoverable worker error

#: Frame kinds whose payload is canonical JSON (everything but the hot path).
_JSON_KINDS = frozenset((ERROR, SWAP, SWAPPED, SYNC, SYNC_REPLY, STOP, READY, FATAL))

#: Exception types allowed to rehydrate as themselves on the parent side.
ERROR_TYPES: Dict[str, Type[BaseException]] = {
    "ClusterOverloadError": ClusterOverloadError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
}

Frame = Tuple[bytes, bytes]  # (kind, payload)
#: One stage of one ``run_many``: :meth:`StageMetrics.record`'s arguments.
StageRecord = Tuple[str, float, int, int, int]

_U64 = struct.Struct("<Q")  # an element's position, a feedback sequence
_LEN = struct.Struct("<I")
_STAGE = struct.Struct("<dqqq")  # seconds, requests, items in, items out


def decode_frame(blob: bytes) -> Frame:
    """Split one received buffer into ``(kind, payload)``."""
    if not blob:
        raise ValueError("empty frame")
    return bytes(blob[:1]), bytes(blob[1:])


def _pack_request(request: ServeRequest) -> bytes:
    return (
        wire.pack_context(request.context)
        + wire.pack_str(str(request.request_id))
        + wire.pack_str(str(request.scenario))
    )


def _unpack_request(blob: bytes, offset: int) -> Tuple[ServeRequest, int]:
    context, offset = wire.unpack_context(blob, offset)
    request_id, offset = wire.unpack_str(blob, offset)
    scenario, offset = wire.unpack_str(blob, offset)
    return ServeRequest(context=context, request_id=request_id, scenario=scenario), offset


# ---------------------------------------------------------------------- #
# hot-path elements
# ---------------------------------------------------------------------- #
# ``corr`` tags an element with its position in the batch frame carrying it.
def encode_serve(corr: int, request: ServeRequest) -> bytes:
    return SERVE + _U64.pack(corr) + _pack_request(request)


def decode_serve(payload: bytes) -> Tuple[int, ServeRequest]:
    (corr,), offset = wire.unpack(_U64, payload, 0)
    request, offset = _unpack_request(payload, offset)
    wire.expect_end(payload, offset)
    return corr, request


def encode_serve_response(corr: int, response: ServeResponse) -> bytes:
    return b"".join(
        (
            RESPONSE,
            _U64.pack(corr),
            _pack_request(response.request),
            wire.pack_array(response.candidates),
            wire.pack_array(response.items),
            wire.pack_array(response.scores),
        )
    )


def decode_serve_response(payload: bytes) -> Tuple[int, ServeResponse]:
    (corr,), offset = wire.unpack(_U64, payload, 0)
    request, offset = _unpack_request(payload, offset)
    candidates, offset = wire.unpack_array(payload, offset)
    items, offset = wire.unpack_array(payload, offset)
    scores, offset = wire.unpack_array(payload, offset)
    wire.expect_end(payload, offset)
    return corr, ServeResponse(
        request=request, candidates=candidates, items=items, scores=scores
    )


# ---------------------------------------------------------------------- #
# batch frames: count + length-prefixed, position-tagged elements
# ---------------------------------------------------------------------- #
def encode_batch(kind: bytes, encode: Callable, values: Sequence) -> bytes:
    """One micro-batch in one frame: ``kind`` is :data:`SERVE_BATCH` with
    ``encode=encode_serve`` over requests (a :data:`RESPONSE_BATCH` is
    :func:`encode_response_batch`)."""
    parts = [kind, _LEN.pack(len(values))]
    for position, value in enumerate(values):
        element = encode(position, value)[1:]  # the frame's kind implies it
        parts += (_LEN.pack(len(element)), element)
    return b"".join(parts)


def decode_batch(payload: bytes, decode: Callable) -> list:
    """Decode a batch payload with ``decode_serve`` / ``decode_serve_response``.

    The frame is checked before anything in it is trusted: every declared
    length must fit in the bytes present, the count must match what the
    payload holds exactly, and element ``i`` must carry position ``i``.
    """
    (count,), offset = wire.unpack(_LEN, payload, 0)
    values = []
    for position in range(count):
        if offset == len(payload):
            raise ValueError(f"batch frame declares {count} elements, holds {position}")
        (size,), offset = wire.unpack(_LEN, payload, offset)
        if offset + size > len(payload):
            raise ValueError(f"truncated batch element {position}")
        tag, value = decode(payload[offset : offset + size])
        if tag != position:
            raise ValueError(f"batch element {position} carries position {tag}")
        values.append(value)
        offset += size
    wire.expect_end(payload, offset)
    return values


def encode_response_batch(responses: Sequence[ServeResponse], metrics: StageMetrics) -> bytes:
    """The reply to a :data:`SERVE_BATCH`: ``metrics`` holds exactly the
    stages of the one ``run_many`` that served ``responses``."""
    parts = [RESPONSE_BATCH, _LEN.pack(len(metrics))]
    for name in metrics.stages():
        stats = metrics.stats(name)
        parts += (
            wire.pack_str(name),
            _STAGE.pack(stats.seconds, stats.requests, stats.items_in, stats.items_out),
        )
    parts.append(encode_batch(b"", encode_serve_response, responses))  # no second kind
    return b"".join(parts)


def decode_response_batch(payload: bytes) -> Tuple[List[ServeResponse], List[StageRecord]]:
    (count,), offset = wire.unpack(_LEN, payload, 0)
    stages: List[StageRecord] = []
    for _ in range(count):
        name, offset = wire.unpack_str(payload, offset)
        fields, offset = wire.unpack(_STAGE, payload, offset)
        stages.append((name, *fields))
    return decode_batch(payload[offset:], decode_serve_response), stages


def encode_feedback(sequence: int, event_bytes: bytes) -> bytes:
    """Feedback replication frame; ``event_bytes`` is the journal's
    :meth:`FeedbackEvent.to_bytes` payload, reused verbatim so the wire and
    disk forms can never disagree."""
    return FEEDBACK + _U64.pack(sequence) + event_bytes


def decode_feedback(payload: bytes) -> Tuple[int, bytes]:
    (sequence,), offset = wire.unpack(_U64, payload, 0)
    return sequence, payload[offset:]


# ---------------------------------------------------------------------- #
# control frames (cold path, JSON payloads)
# ---------------------------------------------------------------------- #
def encode_control(kind: bytes, payload: dict | None = None) -> bytes:
    if kind not in _JSON_KINDS:
        raise ValueError(f"not a control frame kind: {kind!r}")
    body = json.dumps(payload or {}, sort_keys=True, separators=(",", ":"))
    return kind + body.encode("utf-8")


def decode_control(payload: bytes) -> dict:
    body = json.loads(payload.decode("utf-8")) if payload else {}
    if not isinstance(body, dict):
        raise ValueError("control frame payload is not a JSON object")
    return body


def encode_error(error: BaseException) -> bytes:
    """The reply to a frame the child could not answer (a whole batch, a swap)."""
    return encode_control(ERROR, {"type": type(error).__name__, "message": str(error)})


def decode_error(payload: bytes) -> BaseException:
    body = decode_control(payload)
    type_name = str(body.get("type", "RuntimeError"))
    message = str(body.get("message", ""))
    exc_type = ERROR_TYPES.get(type_name)
    if exc_type is None:
        return RuntimeError(f"{type_name}: {message}")
    return exc_type(message)
