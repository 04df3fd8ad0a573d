"""Relation, database, and triple-store snapshots.

``save_relation``/``open_relation`` round-trip a single
:class:`~repro.relational.relation.Relation`;
``save_database``/``open_database`` snapshot every base table of a
:class:`~repro.relational.database.Database`.  Opening a database registers
*lazy* tables in the catalog: nothing is decoded until the first scan of
each table, so cold start is O(number of tables), not O(data).

Views are named logical plans, not data — they are rebuilt by the
application (or by :meth:`Engine.open`'s warm-up), never serialized; the
manifest records their names purely as documentation.

``save_triple_store``/``restore_triple_store`` persist the triple source
relation plus the storage-strategy layout, so an opened store reuses the
partition tables already present in the database snapshot instead of
re-running :meth:`~repro.triples.partitioning.StorageStrategy.load`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.relational.column import DataType
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.storage.columnio import read_column, write_column
from repro.storage.format import read_manifest, require_directory, write_manifest

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.database import Database
    from repro.triples.triple_store import TripleStore

# -- relations ---------------------------------------------------------------


def _write_relation_payload(relation: Relation, directory: Path) -> dict[str, Any]:
    """Write the column buffers of ``relation`` and return its manifest payload."""
    columns = []
    for position, (field, column) in enumerate(zip(relation.schema, relation.columns().values())):
        entry = write_column(column, directory, f"c{position:04d}")
        entry["name"] = field.name
        columns.append(entry)
    return {"rows": relation.num_rows, "columns": columns}


def _read_relation_payload(payload: dict[str, Any], directory: Path, *, mmap: bool) -> Relation:
    """Inverse of :func:`_write_relation_payload`."""
    fields = []
    columns = []
    for entry in payload["columns"]:
        fields.append(Field(entry["name"], DataType(entry["dtype"])))
        columns.append(read_column(directory, entry, mmap=mmap))
    return Relation(Schema(fields), columns)


def save_relation(relation: Relation, path: str | Path) -> Path:
    """Serialize one relation into the directory ``path`` (created if needed)."""
    directory = Path(path)
    payload = _write_relation_payload(relation, directory)
    write_manifest(directory, "relation", payload)
    return directory


def open_relation(path: str | Path, *, mmap: bool = True) -> Relation:
    """Load a relation saved by :func:`save_relation` (memmap-backed by default)."""
    directory = require_directory(Path(path), what="relation snapshot")
    manifest = read_manifest(directory, "relation")
    return _read_relation_payload(manifest, directory, mmap=mmap)


# -- databases ---------------------------------------------------------------


def save_database(database: "Database", path: str | Path) -> Path:
    """Snapshot every base table of ``database`` under the directory ``path``."""
    directory = Path(path)
    tables = []
    for position, name in enumerate(database.table_names()):
        table_dir = directory / "tables" / f"t{position:04d}"
        payload = _write_relation_payload(database.table(name), table_dir)
        tables.append({"name": name, "directory": f"tables/t{position:04d}", **payload})
    write_manifest(directory, "database", {"tables": tables, "views": database.view_names()})
    return directory


def read_table_schemas(path: str | Path) -> "dict[str, Schema]":
    """Table schemas recorded in a database snapshot's manifest.

    Reads only the manifest — no column data is touched.  Used to declare
    lazy-table schemas so static analysis can check plans against snapshots
    without hydrating anything.
    """
    directory = require_directory(Path(path), what="database snapshot")
    manifest = read_manifest(directory, "database")
    return {
        table["name"]: Schema(
            [Field(entry["name"], DataType(entry["dtype"])) for entry in table["columns"]]
        )
        for table in manifest["tables"]
    }


def open_database(
    path: str | Path,
    *,
    database: "Database | None" = None,
    mmap: bool = True,
    lazy: bool = True,
) -> "Database":
    """Open a database snapshot, registering its tables (lazily by default).

    With ``lazy=True`` each table is hydrated on its first scan; with
    ``lazy=False`` every table is decoded immediately.  Pass an existing
    ``database`` to load the snapshot's tables into it (names must not
    clash) instead of creating a fresh instance.
    """
    from repro.relational.database import Database

    directory = require_directory(Path(path), what="database snapshot")
    manifest = read_manifest(directory, "database")
    database = database if database is not None else Database()
    for table in manifest["tables"]:
        table_dir = directory / table["directory"]
        if not lazy:
            relation = _read_relation_payload(table, table_dir, mmap=mmap)
            database.create_table(table["name"], relation)
            continue

        def loader(payload: dict[str, Any] = table, where: Path = table_dir) -> Relation:
            return _read_relation_payload(payload, where, mmap=mmap)

        # declare the manifest's schema up front so static analysis can
        # resolve column names/dtypes without hydrating the table
        schema = Schema(
            [Field(entry["name"], DataType(entry["dtype"])) for entry in table["columns"]]
        )
        database.catalog.create_lazy_table(table["name"], loader, schema=schema)
    return database


# -- triple stores -----------------------------------------------------------


def _object_tag(value: Any) -> str:
    """The type tag stored next to each stringified triple object.

    NumPy scalars count as their Python equivalents, matching
    :meth:`DataType.of_value` and the type-partitioned storage layout.
    """
    if isinstance(value, (bool, np.bool_)):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int"
    if isinstance(value, (float, np.floating)):
        return "float"
    return "str"


def _revive_object(text: str, tag: str) -> Any:
    if tag == "int":
        return int(text)
    if tag == "float":
        return float(text)
    if tag == "bool":
        return text == "True"
    return text


def save_triple_store(store: "TripleStore", path: str | Path) -> Path:
    """Snapshot the triple source relation and the storage-strategy layout.

    The partition tables themselves live in the store's database and are
    covered by :func:`save_database`; this records how to interpret them,
    loading the store first so that those tables exist.
    Unlike the partition tables (which the type-agnostic layouts stringify),
    the source relation keeps a type tag per object, so re-partitioning
    after a round-trip sees the original typed values.
    """
    from repro.relational.column import Column

    store.ensure_loaded()
    directory = Path(path)
    triples = store._triples
    schema = Schema(
        [
            Field("subject", DataType.STRING),
            Field("property", DataType.STRING),
            Field("object", DataType.STRING),
            Field("object_type", DataType.STRING),
            Field("p", DataType.FLOAT),
        ]
    )
    source = Relation(
        schema,
        [
            Column([triple.subject for triple in triples], DataType.STRING),
            Column([triple.property for triple in triples], DataType.STRING),
            Column([str(triple.object) for triple in triples], DataType.STRING),
            Column([_object_tag(triple.object) for triple in triples], DataType.STRING),
            Column([triple.probability for triple in triples], DataType.FLOAT),
        ],
    )
    save_relation(source, directory / "triples")
    write_manifest(
        directory,
        "triple-store",
        {
            "table_name": store.table_name,
            "num_triples": len(triples),
            "storage": {
                "name": store.storage.name,
                "state": store.storage.snapshot_state(),
            },
        },
    )
    return directory


def restore_triple_store(
    path: str | Path,
    database: "Database",
    *,
    store: "TripleStore | None" = None,
    mmap: bool = True,
) -> "TripleStore":
    """Rebuild a :class:`TripleStore` over an already-opened ``database``.

    The storage strategy is reconstructed from its snapshot state and marked
    loaded — its partition tables are expected to be present in ``database``
    (they are, when the database came from the same engine snapshot).  The
    triple list itself hydrates lazily on first access.  Pass ``store`` to
    restore in place (used by :meth:`Engine.open`) instead of building a new
    instance.
    """
    from repro.triples.partitioning import make_storage
    from repro.triples.triple_store import Triple, TripleStore

    directory = require_directory(Path(path), what="triple-store snapshot")
    manifest = read_manifest(directory, "triple-store")
    storage_info = manifest["storage"]
    storage = make_storage(storage_info["name"])
    storage.restore_state(storage_info["state"])
    if store is None:
        store = TripleStore(database, storage=storage, table_name=manifest["table_name"])
    else:
        store.database = database
        store.storage = storage
        store.table_name = manifest["table_name"]
    triples_dir = directory / "triples"

    def load_triples() -> list[Triple]:
        relation = open_relation(triples_dir, mmap=mmap)
        subjects = relation.column("subject").values
        properties = relation.column("property").values
        objects = relation.column("object").values
        tags = relation.column("object_type").values
        probabilities = relation.column("p").values
        return [
            Triple(subject, prop, _revive_object(obj, tag), float(probability))
            for subject, prop, obj, tag, probability in zip(
                subjects, properties, objects, tags, probabilities
            )
        ]

    store.adopt_snapshot(load_triples, manifest["num_triples"])
    return store
