"""Column serialization: raw buffers out, zero-copy memmaps back in.

Numeric and boolean columns round-trip as raw little-endian buffers that
:func:`numpy.memmap` maps straight back — loading is O(1) and the process
never holds a second copy of the data.  String columns are
dictionary-encoded: the sorted distinct values go into one UTF-8 blob with
an offsets buffer, and an ``int64`` codes buffer indexes into it.  Reading a
string column decodes the (small) dictionary eagerly and gathers the object
array from the memmapped codes; the codes memmap is also seeded as the
column's :meth:`~repro.relational.column.Column.factorize` cache, so joins
and aggregations on a snapshot-backed column skip the encoding pass
entirely.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import StorageError
from repro.relational.column import Column, DataType, compact_codes
from repro.storage.format import ensure_directory

_RAW_DTYPES = {
    DataType.INT: np.dtype("<i8"),
    DataType.FLOAT: np.dtype("<f8"),
    DataType.BOOL: np.dtype("|b1"),
}

_CODES_DTYPE = np.dtype("<i8")
_OFFSETS_DTYPE = np.dtype("<i8")


def write_array(array: np.ndarray, path: Path) -> None:
    """Write ``array`` to ``path`` as a raw little-endian buffer."""
    try:
        array.tofile(path)
    except OSError as error:
        raise StorageError(f"cannot write column buffer: {error}", str(path)) from error


def read_array(path: Path, dtype: np.dtype, count: int, *, mmap: bool = True) -> np.ndarray:
    """Read ``count`` values of ``dtype`` from ``path`` (memmapped by default)."""
    if count == 0:
        return np.empty(0, dtype=dtype)
    try:
        if mmap:
            return np.memmap(path, dtype=dtype, mode="r", shape=(count,))
        return np.fromfile(path, dtype=dtype, count=count)
    except (OSError, ValueError) as error:
        raise StorageError(f"cannot read column buffer: {error}", str(path)) from error


def write_column(column: Column, directory: Path, stem: str) -> dict[str, Any]:
    """Serialize ``column`` into ``directory`` and return its manifest entry."""
    ensure_directory(directory)
    entry: dict[str, Any] = {
        "dtype": column.dtype.value,
        "rows": len(column),
        "stem": stem,
    }
    if column.dtype is DataType.STRING:
        # factorize() is cached (and pre-seeded on snapshot-backed columns),
        # so re-saving an opened snapshot skips the coding pass; a carried
        # dictionary can be a shared one far larger than the column, so only
        # the entries the codes use are written
        codes, dictionary = compact_codes(*column.factorize())
        blob, offsets = _encode_dictionary(dictionary)
        codes = codes.astype(_CODES_DTYPE, copy=False).reshape(-1)
        write_array(codes, directory / f"{stem}.codes.bin")
        write_array(offsets, directory / f"{stem}.dict.offsets.bin")
        _write_bytes(blob, directory / f"{stem}.dict.bytes.bin")
        entry["encoding"] = "dictionary"
        entry["dictionary_size"] = int(len(dictionary))
        entry["dictionary_bytes"] = int(len(blob))
        return entry
    raw = column.values.astype(_RAW_DTYPES[column.dtype], copy=False)
    write_array(raw, directory / f"{stem}.values.bin")
    entry["encoding"] = "raw"
    return entry


def read_column(directory: Path, entry: dict[str, Any], *, mmap: bool = True) -> Column:
    """Rebuild a :class:`Column` from its manifest ``entry`` (inverse of write)."""
    dtype = DataType(entry["dtype"])
    rows = int(entry["rows"])
    stem = entry["stem"]
    if dtype is DataType.STRING:
        codes = read_array(directory / f"{stem}.codes.bin", _CODES_DTYPE, rows, mmap=mmap)
        offsets = read_array(
            directory / f"{stem}.dict.offsets.bin",
            _OFFSETS_DTYPE,
            int(entry["dictionary_size"]) + 1,
            mmap=False,
        )
        blob = _read_bytes(
            directory / f"{stem}.dict.bytes.bin", int(entry["dictionary_bytes"])
        )
        dictionary = _decode_dictionary(blob, offsets)
        return Column.from_dictionary(codes, dictionary)
    values = read_array(directory / f"{stem}.values.bin", _RAW_DTYPES[dtype], rows, mmap=mmap)
    return Column(values, dtype)


def write_string_array(values: np.ndarray, directory: Path, stem: str) -> dict[str, Any]:
    """Serialize an object array of strings in order (no dictionary encoding)."""
    ensure_directory(directory)
    blob, offsets = _encode_dictionary(values)
    write_array(offsets, directory / f"{stem}.offsets.bin")
    _write_bytes(blob, directory / f"{stem}.bytes.bin")
    return {"stem": stem, "count": int(len(values)), "bytes": int(len(blob))}


def read_string_array(directory: Path, entry: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`write_string_array` (always decoded eagerly)."""
    stem = entry["stem"]
    offsets = read_array(
        directory / f"{stem}.offsets.bin", _OFFSETS_DTYPE, int(entry["count"]) + 1, mmap=False
    )
    blob = _read_bytes(directory / f"{stem}.bytes.bin", int(entry["bytes"]))
    return _decode_dictionary(blob, offsets)


def _encode_dictionary(dictionary: np.ndarray) -> tuple[bytes, np.ndarray]:
    """UTF-8-encode the distinct values into one blob plus an offsets buffer."""
    encoded = [str(value).encode("utf-8") for value in dictionary]
    offsets = np.zeros(len(encoded) + 1, dtype=_OFFSETS_DTYPE)
    if encoded:
        np.cumsum([len(piece) for piece in encoded], out=offsets[1:])
    return b"".join(encoded), offsets


def _decode_dictionary(blob: bytes, offsets: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_encode_dictionary`: an object array of strings."""
    count = len(offsets) - 1
    dictionary = np.empty(count, dtype=object)
    for index in range(count):
        dictionary[index] = blob[offsets[index] : offsets[index + 1]].decode("utf-8")
    return dictionary


def _write_bytes(blob: bytes, path: Path) -> None:
    try:
        path.write_bytes(blob)
    except OSError as error:
        raise StorageError(f"cannot write dictionary blob: {error}", str(path)) from error


def _read_bytes(path: Path, count: int) -> bytes:
    if count == 0 and not path.exists():
        return b""
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise StorageError("dictionary blob missing from snapshot", str(path)) from None
    except OSError as error:
        raise StorageError(f"cannot read dictionary blob: {error}", str(path)) from error
    if len(blob) != count:
        raise StorageError(
            f"dictionary blob has {len(blob)} bytes, manifest expects {count}", str(path)
        )
    return blob
