"""The shared-memory result path: big frames travel out-of-band.

The pipe codec (:mod:`repro.serving.codec`) is the right transport for
control traffic — plans, specs, acks — but copying a multi-megabyte packed
relation through a ``multiprocessing`` pipe costs two extra copies and a
system call per chunk.  Workers already memmap their shards; this module
extends the same idea to the *result* path: a worker publishes a large
encoded frame into a :class:`multiprocessing.shared_memory.SharedMemory`
segment and sends only a tiny control frame (segment name + size) over the
pipe.  The consumer attaches, copies the frame out, and unlinks the
segment.

Ownership is strictly one-shot and handed over at publish time: the
*creator* (the worker) unregisters the segment from its own resource
tracker and closes its mapping immediately, so the *consumer* (the pool)
is the sole owner and unlinks after claiming.  A consumer that dies
between publish and claim leaks at most one segment per in-flight request;
``/dev/shm`` is cleaned at reboot and the pool tears workers down before
itself, so the window is tiny.

Everything degrades gracefully: if shared memory is unavailable (exotic
platforms, a full or unmounted ``/dev/shm``, sandboxed processes) the
transport falls back to the inline pipe codec — callers treat a ``None``
control block as "send it inline".
"""

from __future__ import annotations

from typing import Any

from repro.errors import EngineError

#: frames smaller than this stay inline on the pipe (one syscall beats
#: create+map+unlink for small payloads)
SHM_MIN_BYTES = 64 * 1024

_PROBED: bool | None = None


def shared_memory_available() -> bool:
    """Whether this platform can create (POSIX/Windows) shared memory."""
    global _PROBED
    if _PROBED is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _PROBED = True
        except Exception:  # noqa: BLE001 - any failure means "not available"
            _PROBED = False
    return _PROBED


def publish_frame(frame: bytes) -> dict[str, Any] | None:
    """Copy ``frame`` into a fresh segment and hand ownership to the reader.

    Returns the control block to send over the pipe, or ``None`` when
    shared memory is unavailable or creation failed — the caller then falls
    back to sending the frame inline.
    """
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=max(1, len(frame)))
    except Exception:  # noqa: BLE001 - fall back to the inline pipe codec
        return None
    try:
        segment.buf[: len(frame)] = frame
        control = {"name": segment.name, "size": len(frame)}
    except Exception:  # noqa: BLE001 - roll back so nothing leaks
        segment.close()
        try:
            segment.unlink()
        except OSError:
            pass
        return None
    _disown(segment)
    segment.close()
    return control


def claim_frame(control: dict[str, Any]) -> bytes:
    """Attach to a published segment, copy the frame out, and unlink it."""
    from multiprocessing import shared_memory

    try:
        name = control["name"]
        size = int(control["size"])
        segment = shared_memory.SharedMemory(name=name)
    except Exception as error:  # noqa: BLE001 - surface as a protocol error
        raise EngineError(f"invalid shared-memory control block {control!r}: {error}") from error
    try:
        if size > segment.size:
            raise EngineError(
                f"shared-memory control block claims {size} bytes but segment "
                f"{name!r} holds only {segment.size}"
            )
        return bytes(segment.buf[:size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def _disown(segment: Any) -> None:
    """Unregister ``segment`` from this process's resource tracker.

    The tracker would otherwise try to unlink the segment when *this*
    process exits — but ownership has been handed to the consumer, which
    unlinks after claiming.  Best-effort: tracker internals are stable
    across CPython 3.8–3.13, but a failure here only risks a spurious
    "leaked shared_memory" warning, never a wrong result.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # noqa: BLE001 - cosmetic only
        pass


class ShmTransport:
    """Policy object deciding which reply frames go through shared memory.

    ``threshold`` is the frame size at or above which a reply is offloaded
    (``None``: :data:`SHM_MIN_BYTES`; ``0`` offloads every reply).  Where
    the platform has no shared memory every frame stays inline.
    """

    def __init__(self, threshold: int | None = None):
        self.threshold = SHM_MIN_BYTES if threshold is None else max(0, int(threshold))
        self.enabled = shared_memory_available()

    def offload(self, frame_size: int) -> bool:
        """Whether a frame of ``frame_size`` bytes should travel via shm."""
        return self.enabled and frame_size >= self.threshold

    def publish(self, frame: bytes) -> dict[str, Any] | None:
        return publish_frame(frame) if self.enabled else None
