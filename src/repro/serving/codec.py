"""A small length-prefixed codec for plans and relations.

Every router↔worker message is one self-delimiting binary frame::

    +----------------+----------------------------------------+
    | 4-byte big-    | payload: pickled message dict, with    |
    | endian length  | relations packed as raw column buffers |
    +----------------+----------------------------------------+

Relations never travel as pickled object graphs: :func:`pack_relation`
lowers them to the same primitive form the snapshot format uses — numeric
and boolean columns as little-endian buffers, string columns as one UTF-8
blob plus an ``int64`` offsets buffer — so a gathered fragment costs a few
``memcpy``-shaped writes instead of a per-value pickle walk, and the wire
form stays aligned with the on-disk form.  Plans (:class:`~repro.pra.plan.PraPlan`
trees) are small and pickle cleanly.

Frames are self-delimiting, so the same bytes work over any transport:
:func:`write_frame`/:func:`read_frame` serve raw byte streams (sockets,
pipes), while the worker pool sends *tagged* frames over a
``multiprocessing`` connection::

    +---------------+--------+--------------------------------+
    | 8-byte big-   | 1-byte | an encoded frame (inline), or  |
    | endian req id | kind   | a control frame (shared memory)|
    +---------------+--------+--------------------------------+

The request id lets one connection carry many requests in flight (the pool
pipelines per worker and matches replies to futures by id); the kind byte
selects the body transport: ``I`` means the body is the message frame
itself, and ``S`` means the body is a tiny control frame naming a
shared-memory segment holding the real frame (:mod:`repro.serving.shm`);
any other kind byte is refused.  Workers fall back to inline framing per
message whenever shared memory is unavailable, so every tagged frame is
decodable with :func:`resolve_tagged` regardless of platform.

**Limits.**  :data:`MAX_FRAME_BYTES` is enforced at *both* ends: writers
(:func:`encode_message`) refuse to emit an oversized frame with a clear
:class:`~repro.errors.EngineError` naming the size, and readers refuse a
length prefix above the limit — so a corrupt prefix can never trigger a
multi-gigabyte allocation, and an oversized payload can never poison a
connection with a frame no reader will accept.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, BinaryIO

import numpy as np

from repro.errors import EngineError
from repro.pra.relation import ProbabilisticRelation
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving import shm as shm_transport

_LENGTH = struct.Struct(">I")
_TAG = struct.Struct(">Q")

#: frames larger than this are refused by writers and readers alike
MAX_FRAME_BYTES = 1 << 31

#: tagged-frame kinds: the body is the frame itself / a shm control frame
KIND_INLINE = b"I"
KIND_SHM = b"S"

_PACKED_RELATION = "__packed_relation__"
_PACKED_PROBABILISTIC = "__packed_probabilistic__"
_PACKED_ARRAY = "__packed_array__"

_NUMERIC_WIRE_DTYPES = {
    DataType.INT: "<i8",
    DataType.FLOAT: "<f8",
    DataType.BOOL: "|b1",
}


def pack_array(array: np.ndarray) -> dict[str, Any]:
    """Pack a numeric NumPy array as raw little-endian bytes."""
    array = np.ascontiguousarray(array)
    wire = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return {_PACKED_ARRAY: {"dtype": wire.dtype.str, "data": wire.tobytes()}}


def unpack_array(payload: dict[str, Any]) -> np.ndarray:
    body = payload[_PACKED_ARRAY]
    return np.frombuffer(body["data"], dtype=np.dtype(body["dtype"])).copy()


def _pack_column(column: Column) -> dict[str, Any]:
    if column.dtype is DataType.STRING:
        texts = [str(value) for value in column.values]
        offsets = np.zeros(len(texts) + 1, dtype="<i8")
        encoded = [text.encode("utf-8") for text in texts]
        if encoded:
            offsets[1:] = np.cumsum([len(blob) for blob in encoded])
        return {
            "dtype": column.dtype.value,
            "blob": b"".join(encoded),
            "offsets": offsets.tobytes(),
        }
    wire_dtype = _NUMERIC_WIRE_DTYPES[column.dtype]
    values = np.ascontiguousarray(column.values).astype(wire_dtype, copy=False)
    return {"dtype": column.dtype.value, "data": values.tobytes()}


def _unpack_column(payload: dict[str, Any]) -> Column:
    dtype = DataType(payload["dtype"])
    if dtype is DataType.STRING:
        offsets = np.frombuffer(payload["offsets"], dtype="<i8")
        blob = payload["blob"]
        values = np.empty(len(offsets) - 1, dtype=object)
        for index in range(len(values)):
            values[index] = blob[offsets[index] : offsets[index + 1]].decode("utf-8")
        return Column(values, dtype)
    values = np.frombuffer(payload["data"], dtype=_NUMERIC_WIRE_DTYPES[dtype])
    return Column(values.astype(dtype.numpy_dtype, copy=False).copy(), dtype)


def pack_relation(relation: Relation) -> dict[str, Any]:
    """Lower a relation to primitive column buffers (the wire form)."""
    return {
        _PACKED_RELATION: {
            "names": list(relation.schema.names),
            "columns": [_pack_column(column) for column in relation.columns().values()],
        }
    }


def unpack_relation(payload: dict[str, Any]) -> Relation:
    body = payload[_PACKED_RELATION]
    columns = [_unpack_column(entry) for entry in body["columns"]]
    fields = [Field(name, column.dtype) for name, column in zip(body["names"], columns)]
    return Relation(Schema(fields), columns)


def _transform(value: Any, pack: bool) -> Any:
    if pack:
        if isinstance(value, ProbabilisticRelation):
            return {_PACKED_PROBABILISTIC: pack_relation(value.relation)}
        if isinstance(value, Relation):
            return pack_relation(value)
        if isinstance(value, np.ndarray):
            return pack_array(value)
    elif isinstance(value, dict):
        if _PACKED_PROBABILISTIC in value:
            return ProbabilisticRelation(
                unpack_relation(value[_PACKED_PROBABILISTIC]), validate=False
            )
        if _PACKED_RELATION in value:
            return unpack_relation(value)
        if _PACKED_ARRAY in value:
            return unpack_array(value)
    if isinstance(value, dict):
        return {key: _transform(item, pack) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        transformed = [_transform(item, pack) for item in value]
        return type(value)(transformed) if isinstance(value, tuple) else transformed
    return value


def encode_message(message: dict[str, Any]) -> bytes:
    """Encode a message dict as one length-prefixed frame.

    Raises :class:`~repro.errors.EngineError` when the payload exceeds
    :data:`MAX_FRAME_BYTES` — every reader rejects such a frame anyway, and
    a payload past the ``>I`` range would otherwise escape as a raw
    ``struct.error``; enforcing the limit at write time keeps the failure
    on the writer, with the offending size in the message.
    """
    payload = pickle.dumps(_transform(message, pack=True), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise EngineError(
            f"refusing to encode a {len(payload)}-byte frame: the wire limit is "
            f"{MAX_FRAME_BYTES} bytes (split the result or raise MAX_FRAME_BYTES "
            "on both ends)"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_message(frame: bytes) -> dict[str, Any]:
    """Decode a frame produced by :func:`encode_message`.

    Any malformed input — truncated header, length/payload mismatch, or a
    payload that is not a valid encoded message — raises a clean
    :class:`~repro.errors.EngineError`; garbage bytes never escape as
    ``struct.error``/``pickle`` internals.
    """
    if len(frame) < _LENGTH.size:
        raise EngineError(f"truncated frame: {len(frame)} bytes")
    (length,) = _LENGTH.unpack_from(frame)
    payload = frame[_LENGTH.size :]
    if length != len(payload):
        raise EngineError(
            f"frame length prefix says {length} bytes, payload has {len(payload)}"
        )
    try:
        message = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - corrupt payloads must not escape raw
        raise EngineError(f"corrupt frame payload: {type(error).__name__}: {error}") from error
    if not isinstance(message, dict):
        raise EngineError(
            f"frame payload decoded to {type(message).__name__}, expected a message dict"
        )
    try:
        return _transform(message, pack=False)
    except Exception as error:  # noqa: BLE001 - corrupt packed columns/arrays
        raise EngineError(
            f"corrupt packed value in frame: {type(error).__name__}: {error}"
        ) from error


def write_frame(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Write one frame to a byte stream (socket/pipe file object).

    The frame (length prefix + payload) is built in one buffer by
    :func:`encode_message` and emitted with a single write: on a buffered
    stream the old ``write(...)`` + ``flush()`` pair copied the frame into
    the buffer and then drained it — two passes and (for a fresh buffer)
    two syscalls per frame — so here the frame bypasses the buffer and goes
    straight to the underlying raw stream after draining any bytes already
    buffered.  Streams without a ``raw`` attribute keep the portable
    write-then-flush path.
    """
    frame = encode_message(message)
    raw = getattr(stream, "raw", None)
    if raw is not None:
        stream.flush()  # drain previously buffered bytes first, in order
        view = memoryview(frame)
        while view.nbytes:
            written = raw.write(view)
            if written is None:  # pragma: no cover - non-blocking raw stream
                continue
            view = view[written:]
        return
    stream.write(frame)
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any]:
    """Read one frame from a byte stream; raises :class:`EOFError` at end.

    Both the 4-byte header and the payload are read in a loop: a socket
    ``read`` may legally return fewer bytes than requested, so a short
    header read is retried until complete and only a genuinely truncated
    stream (EOF mid-header or mid-payload) raises
    :class:`~repro.errors.EngineError`.  A clean EOF at a frame boundary
    raises :class:`EOFError`.
    """
    header = b""
    while len(header) < _LENGTH.size:
        chunk = stream.read(_LENGTH.size - len(header))
        if not chunk:
            if not header:
                raise EOFError("stream closed")
            raise EngineError(
                f"stream closed mid-frame header ({len(header)} of {_LENGTH.size} bytes)"
            )
        header += chunk
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EngineError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit")
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise EngineError("stream closed mid-frame")
        payload += chunk
    return decode_message(header + payload)


# ---------------------------------------------------------------------------
# tagged frames (the pipelined pool transport)
# ---------------------------------------------------------------------------


def encode_tagged(
    request_id: int,
    message: dict[str, Any],
    *,
    transport: "shm_transport.ShmTransport | None" = None,
) -> bytes:
    """Encode one tagged frame: request id, kind byte, body.

    With a ``transport``, frames at or above its threshold are published to
    shared memory and only a control frame travels on the pipe; a publish
    failure (or no transport) falls back to inline framing, so the result
    is always decodable by :func:`resolve_tagged`.
    """
    frame = encode_message(message)
    if transport is not None and transport.offload(len(frame)):
        control = transport.publish(frame)
        if control is not None:
            return _TAG.pack(request_id) + KIND_SHM + encode_message({"shm": control})
    return _TAG.pack(request_id) + KIND_INLINE + frame


def split_tagged(data: bytes) -> tuple[int, bytes, bytes]:
    """Split a tagged frame into ``(request_id, kind, body)``."""
    if len(data) < _TAG.size + 1:
        raise EngineError(f"truncated tagged frame: {len(data)} bytes")
    (request_id,) = _TAG.unpack_from(data)
    kind = data[_TAG.size : _TAG.size + 1]
    if kind not in (KIND_INLINE, KIND_SHM):
        raise EngineError(f"unknown tagged-frame kind {kind!r}")
    return request_id, kind, data[_TAG.size + 1 :]


def resolve_tagged(kind: bytes, body: bytes) -> dict[str, Any]:
    """Decode a tagged frame's body into the message it carries.

    For :data:`KIND_SHM` bodies this claims (and unlinks) the published
    segment, so it must be called exactly once per frame, by the consumer.
    """
    if kind == KIND_SHM:
        control = decode_message(body).get("shm")
        if not isinstance(control, dict):
            raise EngineError(f"malformed shared-memory control frame: {control!r}")
        return decode_message(shm_transport.claim_frame(control))
    if kind != KIND_INLINE:
        raise EngineError(f"unknown tagged-frame kind {kind!r}")
    return decode_message(body)
