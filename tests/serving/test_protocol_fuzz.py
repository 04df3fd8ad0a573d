"""Fuzzing the wire protocol: garbage in, clean errors out.

Every decoder entry point — :func:`decode_message`, :func:`read_frame`,
:func:`split_tagged`, :func:`resolve_tagged` — must map arbitrary bytes to
either a decoded message, :class:`~repro.errors.EngineError`, or (for the
stream reader, at a clean boundary) :class:`EOFError`.  Implementation
internals (``struct.error``, ``pickle.UnpicklingError``, ``KeyError``,
``UnicodeDecodeError``) escaping would crash the pool's receive loop with
an unattributed traceback instead of the worker-scoped error the pool
builds from :class:`EngineError`.

The generator is seeded, so failures reproduce; each case is either a
truncated/mutated prefix of a valid frame (exercises the deep unpickle and
column-unpack paths) or pure random bytes (exercises the header paths).
"""

from __future__ import annotations

import contextlib
import io
import random

import numpy as np
import pytest

try:
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None  # type: ignore[assignment]

from repro.errors import EngineError
from repro.relational.column import Column, DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.serving.codec import (
    KIND_INLINE,
    KIND_SHM,
    decode_message,
    encode_message,
    encode_tagged,
    read_frame,
    resolve_tagged,
    split_tagged,
)

TRIALS = 400

ALLOWED = (EngineError, EOFError)


@pytest.fixture(autouse=True)
def _bounded_address_space():
    """Cap the address space while fuzzing.

    A flipped bit can turn a pickle opcode into one that pre-allocates a
    buffer as large as its (corrupt) length field says — gigabytes from a
    300-byte frame.  With the cap, that allocation fails fast as
    ``MemoryError``, which the decoders must surface as ``EngineError``
    like any other corrupt-payload failure; without it the test box
    thrashes.  Best-effort: skipped where RLIMIT_AS is unsupported.
    """
    if resource is None:
        yield
        return
    limit = 4 * 1024**3
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - can't lower the limit
        yield
        return
    try:
        yield
    finally:
        with contextlib.suppress(ValueError, OSError):
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _valid_frame() -> bytes:
    schema = Schema([Field("s", DataType.STRING), Field("n", DataType.INT)])
    relation = Relation(
        schema,
        [
            Column(["alpha", "βέτα", ""], DataType.STRING),
            Column(np.array([1, 2, 3]), DataType.INT),
        ],
    )
    return encode_message(
        {"op": "reply", "relation": relation, "rows": np.arange(8, dtype=np.int64)}
    )


def _mutations(rng: random.Random, seed_frame: bytes):
    """Yield adversarial byte strings derived from a valid frame."""
    for _ in range(TRIALS):
        choice = rng.randrange(3)
        if choice == 0:  # truncated prefix
            yield seed_frame[: rng.randrange(len(seed_frame))]
        elif choice == 1:  # prefix + random tail
            cut = rng.randrange(len(seed_frame))
            tail = bytes(rng.randrange(256) for _ in range(rng.randrange(32)))
            yield seed_frame[:cut] + tail
        else:  # bit flips in place
            mutated = bytearray(seed_frame)
            for _ in range(rng.randrange(1, 8)):
                mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            yield bytes(mutated)


class TestDecodeMessageFuzz:
    def test_mutated_frames_never_escape_raw(self):
        rng = random.Random(0xC0DEC)
        seed_frame = _valid_frame()
        for data in _mutations(rng, seed_frame):
            try:
                decode_message(data)
            except ALLOWED:
                pass
            # anything else (struct.error, pickle internals, KeyError,
            # UnicodeDecodeError) propagates and fails the test

    def test_pure_random_bytes(self):
        rng = random.Random(7)
        for _ in range(TRIALS):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                decode_message(data)
            except ALLOWED:
                pass


class TestReadFrameFuzz:
    def test_mutated_streams_never_escape_raw(self):
        rng = random.Random(0xF4A3)
        seed_frame = _valid_frame()
        for data in _mutations(rng, seed_frame):
            stream = io.BytesIO(data)
            try:
                while True:
                    read_frame(stream)
            except ALLOWED:
                pass

    def test_random_byte_streams(self):
        rng = random.Random(99)
        for _ in range(TRIALS):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(128)))
            stream = io.BytesIO(data)
            try:
                while True:
                    read_frame(stream)
            except ALLOWED:
                pass


class TestTaggedFrameFuzz:
    def test_mutated_tagged_frames_never_escape_raw(self):
        rng = random.Random(0x7A66)
        seed_frame = encode_tagged(12345, {"op": "reply", "value": list(range(64))})
        for data in _mutations(rng, seed_frame):
            try:
                request_id, kind, body = split_tagged(data)
            except ALLOWED:
                continue
            assert kind in (KIND_INLINE, KIND_SHM)
            try:
                resolve_tagged(kind, body)
            except ALLOWED:
                pass

    def test_random_shm_control_bodies(self):
        # KIND_SHM bodies name segments that do not exist; the claim must
        # fail as EngineError, never KeyError/FileNotFoundError.
        rng = random.Random(3)
        for _ in range(100):
            name = "".join(rng.choice("abcdef0123456789") for _ in range(10))
            body = encode_message({"shm": {"name": f"no_such_{name}", "size": 16}})
            with pytest.raises(EngineError):
                resolve_tagged(KIND_SHM, body)
