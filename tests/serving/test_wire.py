"""One wire layout for contexts and arrays, and every decoder built on it,
under hostile input.

The pipe codec's elements and batch frames and the journal's
:class:`FeedbackEvent` are all read through :mod:`repro.serving.wire`.  A
truncated or overlong buffer is a ``ValueError``; a flipped byte or random
bytes are a ``ValueError`` or decode to a value that re-encodes to exactly
those bytes (a decoder never accepts one thing and acts on another); no
``struct.error``, ``IndexError`` or ``UnicodeError`` of another kind escapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.world import RequestContext
from repro.serving import wire
from repro.serving.cluster import codec
from repro.serving.durable.journal import FeedbackEvent
from repro.serving.pipeline import ServeRequest, ServeResponse, StageMetrics

CONTEXT = RequestContext(17, 100, 9, 1, 2, 31.2, 121.5, "wtw3sz")
REQUESTS = [
    ServeRequest(context=CONTEXT, request_id=f"default-{index}", scenario="default")
    for index in range(2)
]
RESPONSES = [
    ServeResponse(
        request=REQUESTS[0], candidates=np.arange(6, dtype=np.int64),
        items=np.array([4, 2, 5], dtype=np.int64),
        scores=np.array([0.5, 0.25, 0.125], dtype=np.float32),
    ),
    ServeResponse(request=REQUESTS[1]),
]
STAGES = [("recall", 0.25, 2, 0, 6), ("rank", 0.5, 2, 6, 3)]
EVENT = FeedbackEvent(
    context=CONTEXT,
    items=np.array([3, 1, 7, 2], dtype=np.int64),
    clicks=np.array([1.0, 0.0, 1 / 3, 0.0]),
    orders=np.array([True, False]),
)


def _metrics(stages) -> StageMetrics:
    metrics = StageMetrics()
    for stage in stages:
        metrics.record(*stage)
    return metrics


#: name -> (valid payload, decode, re-encode of what decode returned)
CODECS = {
    "serve": (
        codec.encode_serve(3, REQUESTS[0])[1:],
        codec.decode_serve,
        lambda value: codec.encode_serve(*value)[1:],
    ),
    "serve_response": (
        codec.encode_serve_response(5, RESPONSES[0])[1:],
        codec.decode_serve_response,
        lambda value: codec.encode_serve_response(*value)[1:],
    ),
    "serve_batch": (
        codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, REQUESTS)[1:],
        lambda payload: codec.decode_batch(payload, codec.decode_serve),
        lambda value: codec.encode_batch(codec.SERVE_BATCH, codec.encode_serve, value)[1:],
    ),
    "response_batch": (
        codec.encode_response_batch(RESPONSES, _metrics(STAGES))[1:],
        codec.decode_response_batch,
        lambda value: codec.encode_response_batch(value[0], _metrics(value[1]))[1:],
    ),
    "feedback_event": (
        EVENT.to_bytes(),
        FeedbackEvent.from_bytes,
        lambda value: value.to_bytes(),
    ),
}


def _accepted_or_value_error(name: str, blob: bytes):
    """Decode ``blob``; a value is only acceptable if it re-encodes to ``blob``."""
    _, decode, encode = CODECS[name]
    try:
        value = decode(blob)
    except ValueError:
        return None
    assert encode(value) == blob, f"{name} accepted bytes it does not re-encode to"
    return value


@pytest.mark.parametrize("name", sorted(CODECS))
def test_valid_payloads_round_trip(name):
    blob = CODECS[name][0]
    assert _accepted_or_value_error(name, blob) is not None


@settings(max_examples=400)
@given(
    name=st.sampled_from(sorted(CODECS)),
    mutation=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("random"), st.binary(max_size=600)),
    ),
)
def test_hostile_bytes_are_value_errors_or_their_own_encoding(name, mutation):
    blob = CODECS[name][0]
    kind = mutation[0]
    if kind == "truncate":
        with pytest.raises(ValueError):
            CODECS[name][1](blob[: mutation[1] % len(blob)])
    elif kind == "extend":
        with pytest.raises(ValueError):
            CODECS[name][1](blob + mutation[1])
    elif kind == "flip":
        flipped = bytearray(blob)
        flipped[mutation[1] % len(blob)] ^= mutation[2]
        _accepted_or_value_error(name, bytes(flipped))
    else:
        _accepted_or_value_error(name, mutation[1])


class TestReaders:
    def test_a_string_longer_than_its_buffer_is_refused(self):
        blob = wire.pack_str("wtw3sz")
        assert wire.unpack_str(blob, 0) == ("wtw3sz", len(blob))
        with pytest.raises(ValueError, match="6 bytes needed at offset 4, 4 left"):
            wire.unpack_str(blob[:-2], 0)

    def test_only_allow_listed_dtype_codes_are_built(self):
        assert wire.unpack_array(b"\x00", 0) == (None, 1)
        for code in (0x05, 0x56, 0xFF):  # e.g. what a void or structured dtype would need
            with pytest.raises(ValueError, match="dtype code"):
                wire.unpack_array(bytes([code]) + b"\x01\x00\x00\x00" + bytes(8), 0)
        with pytest.raises(ValueError, match="0 or 1"):
            wire.unpack_array(b"\x04\x02\x00\x00\x00\x01\x07", 0)

    def test_the_encode_side_refuses_other_dtypes_and_shapes(self):
        for array in (
            np.zeros(3, dtype=np.int32),
            np.zeros(3, dtype=">i8"),
            np.zeros(2, dtype=[("a", "<i8"), ("b", "<f8")]),
            np.zeros(2, dtype="V8"),
            np.array(["a"], dtype=object),
            np.zeros((2, 2), dtype=np.int64),
        ):
            with pytest.raises(ValueError, match="cannot cross the wire"):
                wire.pack_array(array)
        for dtype in wire.DTYPES.values():
            array = np.arange(3).astype(dtype)
            back, end = wire.unpack_array(wire.pack_array(array), 0)
            assert back.dtype == dtype and back.tobytes() == array.tobytes()
            assert back.flags.writeable and end == 1 + 4 + array.nbytes
