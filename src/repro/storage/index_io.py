"""Snapshots of collection statistics: the packed postings, as they are in memory.

A :class:`~repro.ir.statistics.CollectionStatistics` keeps its postings as
three arrays — per-term offsets, document indices and term frequencies — and
this module writes those arrays as they are, plus one ``int64`` offsets file
(length ``num_terms + 1``) so that the postings of the term in slot ``t`` are
``buffer[offsets[t]:offsets[t + 1]]``.  On open the two posting buffers come
back as memmaps and are adopted, not converted: every ``postings_for`` slice
is a view of the mapped file, with no per-term loop, rebuild or copy.

Document identifiers are stored as a typed column (int or string), the term
vocabulary as an ordered UTF-8 string array.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.ir.statistics import CollectionStatistics
from repro.relational.column import Column, DataType
from repro.storage.columnio import (
    read_array,
    read_column,
    read_string_array,
    write_array,
    write_column,
    write_string_array,
)
from repro.storage.format import ensure_directory, read_manifest, require_directory, write_manifest

_INT64 = np.dtype("<i8")


def _doc_id_column(doc_ids: list[Any]) -> Column:
    dtype = DataType.of_value(doc_ids[0]) if doc_ids else DataType.INT
    return Column(doc_ids, dtype)


def save_statistics(statistics: CollectionStatistics, path: str | Path) -> Path:
    """Serialize collection statistics into the directory ``path``."""
    directory = Path(path)
    ensure_directory(directory)
    terms = sorted(statistics.term_ids, key=statistics.term_ids.__getitem__)
    # the in-memory offsets lead with the empty slot of term id 0; on disk,
    # slot i holds term id i + 1
    offsets = statistics.offsets[1:]
    write_array(statistics.doc_indices.astype(_INT64, copy=False), directory / "postings.docs.bin")
    write_array(
        statistics.frequencies.astype(_INT64, copy=False), directory / "postings.freqs.bin"
    )
    write_array(offsets.astype(_INT64, copy=False), directory / "postings.offsets.bin")
    write_array(
        statistics.doc_lengths.astype(_INT64, copy=False), directory / "doc_lengths.bin"
    )
    write_array(np.arange(1, len(terms) + 1, dtype=_INT64), directory / "term_ids.bin")

    doc_ids_entry = write_column(_doc_id_column(statistics.doc_ids), directory, "doc_ids")
    terms_entry = write_string_array(np.asarray(terms, dtype=object), directory, "terms")
    write_manifest(
        directory,
        "collection-statistics",
        {
            "num_documents": statistics.num_docs,
            "num_terms": len(terms),
            "num_postings": int(offsets[-1]),
            "total_terms": statistics.total_terms,
            "doc_ids": doc_ids_entry,
            "terms": terms_entry,
        },
    )
    return directory


def open_statistics(path: str | Path, *, mmap: bool = True) -> CollectionStatistics:
    """Open a statistics snapshot; the posting arrays are adopted as memmaps.

    Terms are stored in id order, so slot ``i`` is term id ``i + 1``.  A
    snapshot whose stored ids have gaps (a shard split before shards
    numbered their terms densely) opens renumbered, which ranks identically.
    """
    directory = require_directory(Path(path), what="statistics snapshot")
    manifest = read_manifest(directory, "collection-statistics")
    num_terms = int(manifest["num_terms"])
    num_postings = int(manifest["num_postings"])
    num_documents = int(manifest["num_documents"])

    terms = read_string_array(directory, manifest["terms"])
    offsets = read_array(directory / "postings.offsets.bin", _INT64, num_terms + 1, mmap=False)
    return CollectionStatistics(
        doc_ids=read_column(directory, manifest["doc_ids"], mmap=mmap).to_list(),
        doc_lengths=read_array(directory / "doc_lengths.bin", _INT64, num_documents, mmap=mmap),
        term_ids=dict(zip(terms.tolist(), range(1, num_terms + 1))),
        offsets=np.concatenate([np.zeros(1, dtype=_INT64), offsets]),
        doc_indices=read_array(directory / "postings.docs.bin", _INT64, num_postings, mmap=mmap),
        frequencies=read_array(directory / "postings.freqs.bin", _INT64, num_postings, mmap=mmap),
        total_terms=int(manifest["total_terms"]),
    )
