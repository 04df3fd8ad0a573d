"""The on-disk snapshot format: manifests, versioning, and path layout.

A snapshot is a directory containing one ``manifest.json`` plus raw binary
buffers.  The manifest carries a ``format_version``; readers refuse both
newer and older versions with a clear "rebuild or upgrade" message rather
than guessing at layouts.  Binary buffers are plain little-endian NumPy
dumps so that :func:`numpy.memmap` can map them back without copying:

* ``int``/``float``/``bool`` columns are stored as-is (``int64``,
  ``float64``, one-byte bools);
* ``string`` columns are dictionary-encoded: an integer ``codes`` buffer
  plus the sorted dictionary as one UTF-8 ``bytes`` blob with an ``int64``
  ``offsets`` buffer (``len(dictionary) + 1`` entries).

Every multi-file structure (table, index, statistics, store, engine) lives
in its own subdirectory with its own manifest, so the pieces can also be
saved and opened independently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import SnapshotVersionError, StorageError

#: bumped whenever the binary layout or the manifest schema changes.
#: version 2: partitioned snapshots (top-level shard maps, per-shard rowid
#: relations, statistics split by document partition) — see
#: :mod:`repro.storage.shards`.  Readers refuse version-1 snapshots with the
#: "rebuild or upgrade" message below; re-save them with the current library.
FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"


def ensure_directory(path: Path) -> Path:
    """Create ``path`` (and parents), wrapping filesystem errors in StorageError.

    ``FileExistsError`` (the target is a file) and permission problems all
    surface as :class:`StorageError` naming the offending path, so CLI
    callers report them instead of crashing with a traceback.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise StorageError(f"cannot create snapshot directory: {error}", str(path)) from error
    return path


def write_manifest(directory: Path, kind: str, payload: dict[str, Any]) -> None:
    """Write ``payload`` as the manifest of ``directory``, stamping kind/version."""
    manifest = {"format_version": FORMAT_VERSION, "kind": kind, **payload}
    ensure_directory(directory)
    path = directory / MANIFEST_NAME
    try:
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    except OSError as error:
        raise StorageError(f"cannot write snapshot manifest: {error}", str(path)) from error


def read_manifest(directory: Path, expected_kind: str) -> dict[str, Any]:
    """Read and validate the manifest of ``directory``.

    Raises :class:`StorageError` when the directory or manifest is missing or
    malformed and :class:`SnapshotVersionError` on a version mismatch.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StorageError("snapshot manifest not found", str(path)) from None
    except OSError as error:
        raise StorageError(f"cannot read snapshot manifest: {error}", str(path)) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(f"snapshot manifest is not valid JSON: {error}", str(path)) from error
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {version!r} does not match this library's "
            f"version {FORMAT_VERSION}; rebuild the snapshot from source data with "
            "Engine.save() or a repro.storage save function, or upgrade/downgrade "
            "the library to the version that wrote it",
            str(path),
        )
    kind = manifest.get("kind")
    if kind != expected_kind:
        raise StorageError(
            f"snapshot at this path holds a {kind!r} snapshot, expected {expected_kind!r}",
            str(path),
        )
    return manifest


def require_directory(path: Path, *, what: str = "snapshot") -> Path:
    """Return ``path`` as a :class:`~pathlib.Path`, requiring it to be a directory."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"{what} directory does not exist", str(path))
    if not path.is_dir():
        raise StorageError(f"{what} path is not a directory", str(path))
    return path
