"""Vertical-partitioning strategies for the triple store.

Section 2.2 of the paper discusses three ways of laying triples out in the
relational engine:

* a **single triples table**, maximally flexible but requiring self-joins
  whose cost grows with the table (our :class:`SingleTableStorage`);
* **vertical partitioning by property** (Abadi et al., VLDB 2007): one
  two-column table per property, fast for property lookups but less scalable
  when the number of properties is high (Sidirourgos et al., VLDB 2008) —
  :class:`PropertyPartitionedStorage`;
* the **data-driven partitioning by physical object type** that Spinque
  always applies (integers, floats and strings in separate tables) —
  :class:`TypePartitionedStorage`.

All strategies implement the same interface so the partitioning benchmark
(E3) can swap them under an identical query workload.  The *on-demand*
query-driven materialization the paper ultimately relies on is orthogonal:
it is provided by the database's materialization cache (``Database.cache``, a
:class:`~repro.relational.cache.VersionedLRU`) and measured in the same
benchmark.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import PartitioningError
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.algebra import Scan, Select
from repro.relational.column import Column, DataType
from repro.relational.database import Database
from repro.relational.expressions import Expression, col, lit
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.triples.triple_store import Triple


def _triple_schema(object_type: DataType = DataType.STRING) -> Schema:
    return Schema(
        [
            Field("subject", DataType.STRING),
            Field("property", DataType.STRING),
            Field("object", object_type),
            Field(PROBABILITY_COLUMN, DataType.FLOAT),
        ]
    )


def _previous_resources(database: Database, tables: Sequence[str]) -> np.ndarray | None:
    """The resource dictionary of a layout's tables still in memory, if any.

    Reloading mostly the same triples (a batch appended, say) then sorts
    little more than the new resources (see :meth:`Column.from_strings`).
    """
    for name in tables:
        if database.catalog.is_hydrated(name):
            subject = database.table(name).column("subject")
            if subject.coded:
                return subject.factorize()[1]
    return None


def _coded_columns(
    triples: Sequence["Triple"], strings: Sequence[str], previous: np.ndarray | None
) -> tuple[Column, Column, Column, Column]:
    """``(subject, property, p, strings)`` columns of ``triples``, born coded.

    Subjects are coded against one resource dictionary together with the
    string objects ``strings`` (``previous`` is a sort hint for it);
    properties get their own dictionary.
    """
    subjects = [triple.subject for triple in triples]
    # slices of one coded column share its dictionary object, so joins,
    # unions and grouping across them run on the codes as they are
    resources = Column.from_strings(subjects + list(strings), previous)
    subject = resources.slice(0, len(subjects))
    string_objects = resources.slice(len(subjects), len(resources))
    property_column = Column.from_strings([triple.property for triple in triples])
    probability = Column([triple.probability for triple in triples], DataType.FLOAT)
    return subject, property_column, probability, string_objects


def _coded_table(triples: Sequence["Triple"], previous: np.ndarray | None) -> Relation:
    """Every triple as a ``(subject, property, object, p)`` row, objects as strings."""
    subject, property_column, probability, obj = _coded_columns(
        triples, [str(triple.object) for triple in triples], previous
    )
    return Relation(_triple_schema(), [subject, property_column, obj, probability])


def _pattern_predicate(
    subject: str | None, property_name: str | None, obj: Any | None
) -> Expression | None:
    """Build the conjunctive predicate for a triple pattern (None = no filter)."""
    predicate: Expression | None = None
    def conjoin(existing: Expression | None, clause: Expression) -> Expression:
        if existing is None:
            return clause
        return existing.and_(clause)

    if subject is not None:
        predicate = conjoin(predicate, col("subject").eq(lit(subject)))
    if property_name is not None:
        predicate = conjoin(predicate, col("property").eq(lit(property_name)))
    if obj is not None:
        predicate = conjoin(predicate, col("object").eq(lit(obj)))
    return predicate


class StorageStrategy:
    """Interface of a triple storage layout."""

    name = "abstract"

    def load(self, database: Database, triples: Sequence["Triple"]) -> None:
        """(Re)materialise ``triples`` into the database tables of this layout."""
        raise NotImplementedError

    def match(
        self,
        database: Database,
        subject: str | None,
        property_name: str | None,
        obj: Any | None,
    ) -> ProbabilisticRelation:
        """Return the triples matching a pattern as ``(subject, property, object, p)``."""
        raise NotImplementedError

    def table_names(self, database: Database) -> list[str]:
        """The base tables this layout created (for size accounting in benchmarks)."""
        raise NotImplementedError

    def snapshot_state(self) -> dict[str, Any]:
        """JSON-serializable layout state for snapshots (see :mod:`repro.storage`)."""
        raise NotImplementedError

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore the layout state saved by :meth:`snapshot_state`.

        After restoring, :meth:`match` works against a database whose
        partition tables were loaded from the same snapshot, without
        re-running :meth:`load`.
        """
        raise NotImplementedError


class SingleTableStorage(StorageStrategy):
    """All triples in one ``(subject, property, object, p)`` table."""

    name = "single-table"

    def __init__(self, table_name: str = "triples"):
        self.table_name = table_name

    def load(self, database: Database, triples: Sequence["Triple"]) -> None:
        previous = _previous_resources(database, [self.table_name])
        database.create_table(self.table_name, _coded_table(triples, previous), replace=True)

    def match(
        self,
        database: Database,
        subject: str | None,
        property_name: str | None,
        obj: Any | None,
    ) -> ProbabilisticRelation:
        plan = Scan(self.table_name)
        predicate = _pattern_predicate(
            subject, property_name, str(obj) if obj is not None else None
        )
        if predicate is not None:
            plan = Select(plan, predicate)
        return ProbabilisticRelation(database.execute(plan), validate=False)

    def table_names(self, database: Database) -> list[str]:
        return [self.table_name]

    def snapshot_state(self) -> dict[str, Any]:
        return {"table_name": self.table_name}

    def restore_state(self, state: dict[str, Any]) -> None:
        self.table_name = state["table_name"]


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


class PropertyPartitionedStorage(StorageStrategy):
    """Abadi-style vertical partitioning: one table per property."""

    name = "property-partitioned"

    def __init__(self, prefix: str = "prop_"):
        self.prefix = prefix
        self._properties: list[str] = []

    def _table_for(self, property_name: str) -> str:
        return f"{self.prefix}{_sanitize(property_name)}"

    def load(self, database: Database, triples: Sequence["Triple"]) -> None:
        table = _coded_table(triples, _previous_resources(database, self.table_names(database)))
        rows_of: dict[str, list[int]] = {}
        for row, triple in enumerate(triples):
            rows_of.setdefault(triple.property, []).append(row)
        self._properties = sorted(rows_of)
        for property_name, rows in rows_of.items():
            database.create_table(
                self._table_for(property_name),
                table.take(np.asarray(rows, dtype=np.int64)),
                replace=True,
            )

    def match(
        self,
        database: Database,
        subject: str | None,
        property_name: str | None,
        obj: Any | None,
    ) -> ProbabilisticRelation:
        predicate = _pattern_predicate(subject, None, str(obj) if obj is not None else None)
        if property_name is not None:
            if property_name not in self._properties:
                return ProbabilisticRelation(
                    Relation.empty(_triple_schema()), validate=False
                )
            plan = Scan(self._table_for(property_name))
            if predicate is not None:
                plan = Select(plan, predicate)
            return ProbabilisticRelation(database.execute(plan), validate=False)
        # no property bound: scan every partition and concatenate
        result: Relation | None = None
        for name in self._properties:
            plan = Scan(self._table_for(name))
            if predicate is not None:
                plan = Select(plan, predicate)
            partition = database.execute(plan)
            result = partition if result is None else result.concat(partition)
        if result is None:
            result = Relation.empty(_triple_schema())
        return ProbabilisticRelation(result, validate=False)

    def table_names(self, database: Database) -> list[str]:
        return [self._table_for(name) for name in self._properties]

    def snapshot_state(self) -> dict[str, Any]:
        return {"prefix": self.prefix, "properties": list(self._properties)}

    def restore_state(self, state: dict[str, Any]) -> None:
        self.prefix = state["prefix"]
        self._properties = list(state["properties"])


class TypePartitionedStorage(StorageStrategy):
    """Spinque's data-driven partitioning by the physical type of the object.

    String, integer and float literals land in separate tables (keeping their
    native types, rather than serialising everything into strings); pattern
    matching consults only the partitions compatible with the bound object
    value, or all of them when the object is unbound.
    """

    name = "type-partitioned"

    def __init__(self, prefix: str = "triples_"):
        self.prefix = prefix
        self._partitions: list[DataType] = []

    _SUFFIXES = {
        DataType.STRING: "str",
        DataType.INT: "int",
        DataType.FLOAT: "float",
    }

    def _table_for(self, dtype: DataType) -> str:
        return f"{self.prefix}{self._SUFFIXES[dtype]}"

    @staticmethod
    def _object_type(value: Any) -> DataType:
        if isinstance(value, bool):
            return DataType.STRING
        if isinstance(value, int):
            return DataType.INT
        if isinstance(value, float):
            return DataType.FLOAT
        return DataType.STRING

    def load(self, database: Database, triples: Sequence["Triple"]) -> None:
        rows_of: dict[DataType, list[int]] = {}
        for row, triple in enumerate(triples):
            rows_of.setdefault(self._object_type(triple.object), []).append(row)
        subject, property_column, probability, strings = _coded_columns(
            triples,
            [str(triples[row].object) for row in rows_of.get(DataType.STRING, [])],
            _previous_resources(database, self.table_names(database)),
        )
        self._partitions = sorted(rows_of, key=lambda dtype: dtype.value)
        for dtype, rows in rows_of.items():
            if dtype is DataType.STRING:
                obj = strings
            else:
                obj = Column([triples[row].object for row in rows], dtype)
            index = np.asarray(rows, dtype=np.int64)
            columns = [subject.take(index), property_column.take(index), obj]
            columns.append(probability.take(index))
            database.create_table(
                self._table_for(dtype), Relation(_triple_schema(dtype), columns), replace=True
            )

    def match(
        self,
        database: Database,
        subject: str | None,
        property_name: str | None,
        obj: Any | None,
    ) -> ProbabilisticRelation:
        if obj is not None:
            candidate_types = [self._object_type(obj)]
        else:
            candidate_types = list(self._partitions)
        result: Relation | None = None
        for dtype in candidate_types:
            if dtype not in self._partitions:
                continue
            predicate = _pattern_predicate(
                subject,
                property_name,
                obj if dtype is not DataType.STRING or obj is None else str(obj),
            )
            plan = Scan(self._table_for(dtype))
            if predicate is not None:
                plan = Select(plan, predicate)
            partition = database.execute(plan)
            # normalise the object column to string so partitions can be concatenated
            if dtype is not DataType.STRING and partition.num_rows >= 0:
                object_column = partition.column("object").cast(DataType.STRING)
                partition = Relation(
                    _triple_schema(),
                    [
                        partition.column("subject"),
                        partition.column("property"),
                        object_column,
                        partition.column(PROBABILITY_COLUMN),
                    ],
                )
            result = partition if result is None else result.concat(partition)
        if result is None:
            result = Relation.empty(_triple_schema())
        return ProbabilisticRelation(result, validate=False)

    def table_names(self, database: Database) -> list[str]:
        return [self._table_for(dtype) for dtype in self._partitions]

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "prefix": self.prefix,
            "partitions": [dtype.value for dtype in self._partitions],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.prefix = state["prefix"]
        self._partitions = [DataType(value) for value in state["partitions"]]


def make_storage(name: str, **options) -> StorageStrategy:
    """Factory used by benchmarks.

    Available: ``single-table``, ``property-partitioned``, ``type-partitioned``.
    """
    registry = {
        SingleTableStorage.name: SingleTableStorage,
        PropertyPartitionedStorage.name: PropertyPartitionedStorage,
        TypePartitionedStorage.name: TypePartitionedStorage,
    }
    try:
        factory = registry[name]
    except KeyError:
        raise PartitioningError(
            f"unknown storage strategy {name!r}; available: {sorted(registry)}"
        ) from None
    return factory(**options)
