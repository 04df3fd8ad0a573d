"""Partitioned engine snapshots: the sharded on-disk layout.

``Engine.save(path, shards=N)`` writes::

    path/
      manifest.json          the shard map: shard count, partitioner, per-table
                             shard keys, shard directories
      shard-0000/            a fully self-contained engine snapshot holding
        manifest.json        shard 0's fragment of every base table, its slice
        database/ store/     of the triple list, and its slice of every warm
        stats/               collection-statistics snapshot (postings split by
        rowids/              the document partition)
      shard-0001/ ...

Every base table is split by **hash range on a shard key** (its first column
unless overridden): rows are assigned to one of ``N`` equal ranges of a
stable 64-bit key hash (:class:`~repro.relational.partitioner.HashRangePartitioner`),
and each fragment keeps its rows in ascending original order.  Next to each
fragment, ``rowids/`` records the fragment's **original row indices**, so a
gather can reconstruct the unsharded table bit-exactly — same rows, same
order — which is what keeps scatter-gather execution identical to the
single-engine path (the merge kernels are input-order-sensitive).

Each shard directory is an ordinary engine snapshot: ``Engine.open_shard``
(or plain ``Engine.open`` on the subdirectory) boots a fully functional
shard-local engine in milliseconds, memmap-backed.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import StorageError
from repro.relational.column import Column, DataType
from repro.relational.partitioner import HashRangePartitioner
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage.format import ensure_directory, read_manifest, require_directory, write_manifest
from repro.storage.snapshot import open_relation, save_relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import Engine

SHARDS_KIND = "engine-shards"

_ROW_SCHEMA = Schema([Field("row", DataType.INT)])


def _row_relation(indices: np.ndarray) -> Relation:
    return Relation(_ROW_SCHEMA, [Column(np.asarray(indices, dtype=np.int64), DataType.INT)])


def shard_directory_name(index: int) -> str:
    return f"shard-{index:04d}"


class ShardMap:
    """The parsed top-level manifest of a partitioned snapshot.

    All shard-routing questions go through the accessors here
    (:meth:`shards`, :meth:`shard_for`, :meth:`shard_directory`).  A served
    engine keeps the layout it was opened with; re-partitioning is offline
    (``Engine.save(path, shards=N)``, ``python -m repro shard``).
    """

    def __init__(self, path: Path, manifest: dict[str, Any]) -> None:
        self.path = Path(path)
        self.num_shards = int(manifest["shards"])
        self.partitioner = dict(manifest["partitioner"])
        self.shard_keys: dict[str, str] = {
            entry["name"]: entry["key"] for entry in manifest["tables"]
        }
        self.rowid_directories: dict[str, str] = {
            entry["name"]: entry["rowids"] for entry in manifest["tables"]
        }
        self.store_rowids: str = manifest["store_rowids"]
        directories = manifest["shard_directories"]
        if len(directories) != self.num_shards:
            raise StorageError(
                f"shard map lists {len(directories)} shard directories for "
                f"{self.num_shards} shards",
                str(self.path),
            )
        self.shard_directories = [self.path / name for name in directories]

    @property
    def table_names(self) -> list[str]:
        return sorted(self.shard_keys)

    def is_partitioned(self, table: str) -> bool:
        return table in self.shard_keys

    # -- the routing accessor API ------------------------------------------------

    def shards(self) -> list[int]:
        """Every shard index, in shard order."""
        return list(range(self.num_shards))

    def shard_directory(self, shard: int) -> Path:
        """The snapshot directory of shard ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise StorageError(
                f"shard index {shard} out of range for {self.num_shards} shards",
                str(self.path),
            )
        return self.shard_directories[shard]

    def shard_for(self, key: Any) -> int:
        """The shard holding rows whose shard-key value is ``key``.

        Uses the manifest's partitioner (stable FNV-1a hash ranges), so the
        answer agrees with how :func:`save_sharded_engine` placed the rows —
        in every process, on every host.
        """
        if self.partitioner.get("name") != HashRangePartitioner.name:
            raise StorageError(
                f"unknown partitioner {self.partitioner.get('name')!r}",
                str(self.path),
            )
        from repro.relational.partitioner import fnv1a_64

        hashes = np.asarray([fnv1a_64(str(key))], dtype=np.uint64)
        return int(HashRangePartitioner(self.num_shards).shard_of_hashes(hashes)[0])


class ShardRowids:
    """Lazy per-table original-row-index arrays of one shard."""

    def __init__(self, shard_directory: Path, directories: dict[str, str], store_rowids: str) -> None:
        self._directory = Path(shard_directory)
        self._directories = directories
        self._store_rowids = store_rowids
        self._cache: dict[str, np.ndarray] = {}

    def _load(self, relative: str) -> np.ndarray:
        relation = open_relation(self._directory / relative, mmap=True)
        return np.asarray(relation.column("row").values, dtype=np.int64)

    def get(self, table: str) -> np.ndarray:
        rows = self._cache.get(table)
        if rows is None:
            try:
                relative = self._directories[table]
            except KeyError:
                raise StorageError(
                    f"table {table!r} is not partitioned", str(self._directory)
                ) from None
            rows = self._load(relative)
            self._cache[table] = rows
        return rows

    def get_store(self) -> np.ndarray:
        """Original triple-list indices of this shard's triples."""
        rows = self._cache.get("__store__")
        if rows is None:
            rows = self._load(self._store_rowids)
            self._cache["__store__"] = rows
        return rows


def _default_shard_key(relation: Relation) -> str:
    return relation.schema.names[0]


def _split_warm_statistics(
    engine: "Engine", table_indices: dict[str, list[np.ndarray]]
) -> dict[tuple, list]:
    """Split every saveable warm searcher's statistics by the docs partition.

    Returns ``{searcher_key: [per-shard CollectionStatistics]}`` for searchers
    whose docs source is a partitioned base table (the only ones the engine
    snapshot format persists: default model, no expander).
    """
    from repro.ir.statistics import split_statistics

    pieces: dict[tuple, list] = {}
    for key, searcher in engine._search_engines.items():
        table, model_key, expander_key, _id_column, _text_column = key
        if model_key != "default" or expander_key is not None:
            continue
        if not searcher.statistics_available or table not in table_indices:
            continue
        pieces[key] = split_statistics(searcher.statistics, table_indices[table])
    return pieces


def save_sharded_engine(
    engine: "Engine",
    path: str | Path,
    *,
    shards: int,
    shard_keys: dict[str, str] | None = None,
) -> Path:
    """Write ``engine`` as an ``N``-shard partitioned snapshot under ``path``."""
    from repro.engine import Engine
    from repro.storage.engine_io import _compiled_sources, save_engine
    from repro.triples.partitioning import make_storage

    if shards < 1:
        raise StorageError(f"shard count must be >= 1, got {shards}")
    directory = ensure_directory(Path(path))
    partitioner = HashRangePartitioner(shards)
    shard_keys = dict(shard_keys or {})

    engine.store.ensure_loaded()
    database = engine.database

    # per-table hash-range partitions (ascending original-row indices)
    table_names = database.table_names()
    table_indices: dict[str, list[np.ndarray]] = {}
    resolved_keys: dict[str, str] = {}
    for name in table_names:
        relation = database.table(name)
        key = shard_keys.get(name, _default_shard_key(relation))
        if key not in relation.schema:
            raise StorageError(
                f"shard key {key!r} is not a column of table {name!r} "
                f"(columns: {relation.schema.names})",
                str(directory),
            )
        resolved_keys[name] = key
        table_indices[name] = partitioner.partition_indices(relation, key)

    # the triple list splits by subject — the same key the subject-leading
    # partition tables use, so a shard's list matches its tables
    triples = engine.store._triples
    subject_relation = Relation(
        Schema([Field("subject", DataType.STRING)]),
        [Column([triple.subject for triple in triples], DataType.STRING)],
    )
    triple_indices = partitioner.partition_indices(subject_relation, "subject")

    statistics_pieces = _split_warm_statistics(engine, table_indices)
    storage_state = engine.store.storage.snapshot_state()
    storage_name = engine.store.storage.name
    compiled_sources = _compiled_sources(engine)

    tables_payload = []
    rowid_directories: dict[str, str] = {}
    for position, name in enumerate(table_names):
        rowid_directories[name] = f"rowids/t{position:04d}"
        tables_payload.append(
            {"name": name, "key": resolved_keys[name], "rowids": rowid_directories[name]}
        )
    store_rowids = "rowids/store"

    shard_directories = []
    for shard in range(shards):
        shard_dir = directory / shard_directory_name(shard)
        shard_directories.append(shard_dir.name)

        shard_engine = Engine(
            triples_table=engine.triples_table, language=engine.language
        )
        for name in table_names:
            fragment = database.table(name).take(table_indices[name][shard])
            shard_engine.database.create_table(name, fragment)
        storage = make_storage(storage_name)
        storage.restore_state(dict(storage_state))
        shard_engine.store.storage = storage
        shard_engine.store._triples_list = [triples[i] for i in triple_indices[shard]]
        shard_engine.store._loaded = True
        # re-record the source engine's compiled SpinQL programs, so shard
        # snapshots (and open_sharded, which warms from shard 0) keep the
        # plain layout's warm-plan-cache behavior
        for entry in compiled_sources:
            shard_engine._compile_spinql(entry["source"], frozenset(entry["parameters"]))
        for key, pieces in statistics_pieces.items():
            table, _model, _expander, id_column, text_column = key
            piece = pieces[shard]
            searcher = shard_engine._search_engine(
                table,
                model=None,
                expander=None,
                id_column=id_column,
                text_column=text_column,
            )
            searcher.adopt_statistics_loader(lambda piece=piece: piece)

        save_engine(shard_engine, shard_dir)
        for name in table_names:
            save_relation(
                _row_relation(table_indices[name][shard]),
                shard_dir / rowid_directories[name],
            )
        save_relation(_row_relation(triple_indices[shard]), shard_dir / store_rowids)

    write_manifest(
        directory,
        SHARDS_KIND,
        {
            "shards": shards,
            "partitioner": partitioner.describe(),
            "tables": tables_payload,
            "store_rowids": store_rowids,
            "shard_directories": shard_directories,
        },
    )
    return directory


def read_shard_map(path: str | Path) -> ShardMap:
    """Read and validate the top-level shard map of a partitioned snapshot."""
    directory = require_directory(Path(path), what="sharded snapshot")
    manifest = read_manifest(directory, SHARDS_KIND)
    try:
        return ShardMap(directory, manifest)
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"shard map manifest is malformed: {error!r}", str(directory)
        ) from error


def is_sharded_snapshot(path: str | Path) -> bool:
    """True when ``path`` holds a partitioned (shard-map) snapshot."""
    directory = Path(path)
    if not directory.is_dir():
        return False
    try:
        read_manifest(directory, SHARDS_KIND)
    except StorageError:
        return False
    return True


def open_shard(path: str | Path, shard: int, *, mmap: bool = True) -> "Engine":
    """Open shard ``shard`` of a partitioned snapshot as a standalone engine."""
    from repro.engine import Engine

    shard_map = read_shard_map(path)
    if not 0 <= shard < shard_map.num_shards:
        raise StorageError(
            f"shard index {shard} out of range for {shard_map.num_shards} shards",
            str(path),
        )
    return Engine.open(shard_map.shard_directories[shard], mmap=mmap)


def shard_rowids(shard_map: ShardMap, shard: int) -> ShardRowids:
    """The lazy original-row-index arrays of shard ``shard``."""
    return ShardRowids(
        shard_map.shard_directories[shard],
        shard_map.rowid_directories,
        shard_map.store_rowids,
    )
