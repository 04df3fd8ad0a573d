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
(E3) can swap them under an identical query workload.  Each materialises
triples by one append (``_materialize``) that codes only the new strings,
so a write costs what it adds and a full load is an append onto no tables.
The *on-demand*
query-driven materialization the paper ultimately relies on is orthogonal:
it is provided by the database's materialization cache (``Database.cache``, a
:class:`~repro.relational.cache.VersionedLRU`) and measured in the same
benchmark.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import PartitioningError
from repro.pra.expressions import PositionalRef
from repro.pra.plan import PraPlan, PraScan, PraSelect, PraValues
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.algebra import Scan, Select
from repro.relational.column import Column, DataType, extend_coding
from repro.relational.database import Database
from repro.relational.expressions import Expression, Literal, col, lit
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


def _dictionary(tables: dict[str, Relation], name: str) -> np.ndarray | None:
    """The dictionary the ``name`` columns of ``tables`` share (``None``: not coded)."""
    for table in tables.values():
        column = table.column(name)
        return column.factorize()[1] if column.coded else None
    return np.empty(0, dtype=object)


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


def _pattern_plan(table: str, property_name: str | None, obj: Any | None) -> PraPlan:
    """``SELECT [$2=property and $3=object] (table)``, unbound parts left out."""
    predicate: Expression | None = None
    for position, value in ((2, property_name), (3, obj)):
        if value is not None:
            clause = PositionalRef(position).eq(Literal(value))
            predicate = clause if predicate is None else predicate.and_(clause)
    return PraScan(table) if predicate is None else PraSelect(PraScan(table), predicate)


def _no_triples(table: str, object_type: DataType = DataType.STRING) -> PraPlan:
    """No triples, standing in for ``table`` until a load creates it."""
    empty = ProbabilisticRelation(Relation.empty(_triple_schema(object_type)), validate=False)
    return PraValues(empty, table, tables=[table])


class StorageStrategy:
    """Interface of a triple storage layout."""

    name = "abstract"
    #: the tables this layout last wrote, by name
    _written: tuple[tuple[str, "weakref.ref[Relation]"], ...] = ()

    def load(
        self, database: Database, triples: Sequence["Triple"], *, append: bool = False
    ) -> None:
        """Materialise ``triples`` into the database tables of this layout.

        With ``append`` they follow the triples the tables hold (:meth:`held`);
        otherwise they replace them: a full load is an append onto no tables.
        """
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

    def pattern_plan(self, property_name: str, obj: Any | None = None) -> PraPlan:
        """The triples of ``property_name`` (and ``obj``) as a PRA plan.

        The plan yields ``(subject, property, object, p)`` rows in the order
        :meth:`match` returns them; it is how strategies, ``TRAVERSE`` and the
        builder's ``traverse()`` read the store, so they run on every layout.
        """
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

    def held(self, database: Database) -> int:
        """How many triples this layout's tables in ``database`` hold as it wrote them.

        0 when it wrote none, or one of them was replaced or dropped since.
        """
        catalog, rows = database.catalog, 0
        for name, written in self._written:
            table = written()
            if table is None or not catalog.is_hydrated(name) or catalog.table(name) is not table:
                return 0
            rows += table.num_rows
        return rows

    def _materialize(
        self,
        database: Database,
        triples: Sequence["Triple"],
        append: bool,
        groups: dict[tuple[str, DataType], Sequence[int]],
    ) -> None:
        """Append ``triples`` to the tables this layout wrote (or, unless ``append``, to none).

        ``groups`` maps each table and its object type (STRING objects are
        stored as their ``str``) to the rows of ``triples`` it receives.
        Subject and string-object columns of every table share one dictionary
        object, properties another; only the new triples' strings are coded,
        and held columns move to the grown dictionaries by one integer gather
        (:func:`extend_coding`).
        """
        written = {name: database.table(name) for name, _ in self._written} if append else {}
        strings = (r for (_, kind), rows in groups.items() if kind is DataType.STRING for r in rows)
        count = len(triples)
        resources, recode_resources = extend_coding(
            _dictionary(written, "subject"),
            [triple.subject for triple in triples] + [str(triples[row].object) for row in strings],
        )
        properties, recode_properties = extend_coding(
            _dictionary(written, "property"), [triple.property for triple in triples]
        )
        subject = resources.slice(0, count)
        probability = Column([triple.probability for triple in triples], DataType.FLOAT)

        tables = {}
        for name, table in written.items():
            subjects, property_column, objects, probabilities = table.columns().values()
            if objects.dtype is DataType.STRING:
                objects = recode_resources(objects)
            columns = [recode_resources(subjects), recode_properties(property_column), objects]
            tables[name] = Relation(table.schema, [*columns, probabilities])
        start = count  # each STRING table's objects follow the subjects in ``resources``
        for (name, dtype), rows in groups.items():
            if dtype is DataType.STRING:
                objects = resources.slice(start, start + len(rows))
                start += len(rows)
            else:
                objects = Column([triples[row].object for row in rows], dtype)
            # every triple, in order, is a view, not a copy
            index = slice(None) if len(rows) == count else np.asarray(rows, dtype=np.int64)
            columns = [subject.take(index), properties.take(index), objects]
            added = Relation(_triple_schema(dtype), [*columns, probability.take(index)])
            tables[name] = tables[name].concat(added) if name in tables else added
        for name, table in tables.items():
            database.create_table(name, table, replace=True)
        self._written = tuple((name, weakref.ref(table)) for name, table in tables.items())


class SingleTableStorage(StorageStrategy):
    """All triples in one ``(subject, property, object, p)`` table."""

    name = "single-table"

    def __init__(self, table_name: str = "triples"):
        self.table_name = table_name

    def load(
        self, database: Database, triples: Sequence["Triple"], *, append: bool = False
    ) -> None:
        table = (self.table_name, DataType.STRING)
        self._materialize(database, triples, append, {table: range(len(triples))})

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

    def pattern_plan(self, property_name: str, obj: Any | None = None) -> PraPlan:
        return _pattern_plan(self.table_name, property_name, str(obj) if obj is not None else None)

    def table_names(self, database: Database) -> list[str]:
        return [self.table_name]

    def snapshot_state(self) -> dict[str, Any]:
        return {"table_name": self.table_name}

    def restore_state(self, state: dict[str, Any]) -> None:
        self.table_name = state["table_name"]


def _sanitize(name: str) -> str:
    """``name`` as a table-name suffix, one-to-one.

    A name of letters, digits and ``_`` is kept.  Any other name is its
    sanitized form, a ``-`` and the hex of its UTF-8 bytes: the ``-`` sets it
    apart from every kept name and the hex from every other such name.
    """
    safe = re.sub(r"[^A-Za-z0-9_]", "_", name)
    return name if safe == name else f"{safe}-{name.encode('utf-8').hex()}"


class PropertyPartitionedStorage(StorageStrategy):
    """Abadi-style vertical partitioning: one table per property."""

    name = "property-partitioned"

    def __init__(self, prefix: str = "prop_"):
        self.prefix = prefix
        self._properties: list[str] = []

    def _table_for(self, property_name: str) -> str:
        return f"{self.prefix}{_sanitize(property_name)}"

    def load(
        self, database: Database, triples: Sequence["Triple"], *, append: bool = False
    ) -> None:
        rows_of: dict[str, list[int]] = {}
        for row, triple in enumerate(triples):
            rows_of.setdefault(triple.property, []).append(row)
        groups = {(self._table_for(name), DataType.STRING): rows for name, rows in rows_of.items()}
        self._materialize(database, triples, append, groups)
        self._properties = sorted(set(self._properties if append else ()).union(rows_of))

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

    def pattern_plan(self, property_name: str, obj: Any | None = None) -> PraPlan:
        table = self._table_for(property_name)
        if property_name not in self._properties:
            return _no_triples(table)
        return _pattern_plan(table, None, str(obj) if obj is not None else None)

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

    def load(
        self, database: Database, triples: Sequence["Triple"], *, append: bool = False
    ) -> None:
        rows_of: dict[DataType, list[int]] = {}
        for row, triple in enumerate(triples):
            rows_of.setdefault(self._object_type(triple.object), []).append(row)
        groups = {(self._table_for(dtype), dtype): rows for dtype, rows in rows_of.items()}
        self._materialize(database, triples, append, groups)
        known = set(self._partitions if append else ()).union(rows_of)
        self._partitions = sorted(known, key=lambda dtype: dtype.value)

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

    def pattern_plan(self, property_name: str, obj: Any | None = None) -> PraPlan:
        """Reads one partition: the bound object's, else the strings.

        Resources and texts are strings, so an unbound object reads the
        string partition only; :meth:`match` also lists the numeric
        partitions' triples, their objects cast to strings.
        """
        dtype = self._object_type(obj) if obj is not None else DataType.STRING
        table = self._table_for(dtype)
        if dtype not in self._partitions:
            return _no_triples(table, dtype)
        if dtype is DataType.STRING and obj is not None:
            obj = str(obj)
        return _pattern_plan(table, property_name, obj)

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
