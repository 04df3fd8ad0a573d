"""Persistent columnar snapshots: durable storage for the whole engine state.

Every process start used to rebuild the database, triple store and text
statistics from CSV/text in Python loops; this package makes engine state
durable instead.  Snapshots are versioned directories of raw binary buffers
under a JSON manifest (see :mod:`repro.storage.format`), read back through
:func:`numpy.memmap` so cold start is O(metadata) and numeric columns are
never copied.

Entry points, lowest layer first:

* :func:`save_relation` / :func:`open_relation` — one table;
* :meth:`Database.save` / :meth:`Database.open` — every base table, with
  lazy per-table hydration through the catalog;
* :meth:`CollectionStatistics.save` / :meth:`CollectionStatistics.open` —
  the packed postings (term offsets, document indices, frequencies),
  adopted as memmaps;
* :meth:`TripleStore.save` / :meth:`TripleStore.open` — the triple source
  plus the storage-strategy layout (partition tables live in the database);
* :meth:`Engine.save` / :meth:`Engine.open` — all of the above plus
  analyzer/ranking configuration, compiled SpinQL sources (recompiled on
  open to warm the plan cache) and warm collection statistics;
* ``Engine.save(path, shards=N)`` / :meth:`Engine.open_sharded` /
  :meth:`Engine.open_shard` — the *partitioned* layout
  (:mod:`repro.storage.shards`): tables split by hash range on a shard key,
  postings split by the document partition, each shard a self-contained
  snapshot directory under a top-level shard map.
"""

from repro.storage.columnio import read_column, write_column
from repro.storage.engine_io import open_engine, save_engine
from repro.storage.format import FORMAT_VERSION, read_manifest, write_manifest
from repro.storage.index_io import open_statistics, save_statistics
from repro.storage.shards import (
    is_sharded_snapshot,
    open_shard,
    read_shard_map,
    save_sharded_engine,
)
from repro.storage.snapshot import (
    open_database,
    open_relation,
    restore_triple_store,
    save_database,
    save_relation,
    save_triple_store,
)

__all__ = [
    "FORMAT_VERSION",
    "is_sharded_snapshot",
    "open_shard",
    "read_shard_map",
    "save_sharded_engine",
    "open_database",
    "open_engine",
    "open_relation",
    "open_statistics",
    "read_column",
    "read_manifest",
    "restore_triple_store",
    "save_database",
    "save_engine",
    "save_relation",
    "save_statistics",
    "save_triple_store",
    "write_column",
    "write_manifest",
]
