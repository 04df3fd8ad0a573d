"""The probabilistic triple store.

Triples are uncertain events ``(subject, property, object, p)`` (Section 2.3).
The store keeps them in the relational engine through a pluggable
:class:`~repro.triples.partitioning.StorageStrategy` and offers:

* pattern matching (``match``) returning probabilistic relations (plans
  read the store through the layout's ``pattern_plan`` instead),
* registration of SQL-level views such as the paper's ``docs`` view that
  joins category filtering with description extraction.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import TripleStoreError
from repro.pra.assumptions import Assumption
from repro.pra.evaluator import PRAEvaluator
from repro.pra.plan import PraJoin, PraProject
from repro.pra.relation import PROBABILITY_COLUMN, ProbabilisticRelation
from repro.relational.column import DataType
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.triples.partitioning import SingleTableStorage, StorageStrategy

#: well-known property used to type resources, as in ``(lot23, type, lot)``
TYPE_PROPERTY = "type"


@dataclass(frozen=True)
class Triple:
    """One probabilistic triple."""

    subject: str
    property: str
    object: Any
    probability: float = 1.0

    def as_row(self) -> tuple[str, str, Any, float]:
        return (self.subject, self.property, self.object, self.probability)


TRIPLE_SCHEMA = Schema(
    [
        Field("subject", DataType.STRING),
        Field("property", DataType.STRING),
        Field("object", DataType.STRING),
        Field(PROBABILITY_COLUMN, DataType.FLOAT),
    ]
)


class TripleStore:
    """A probabilistic triple store backed by the relational engine."""

    def __init__(
        self,
        database: Database | None = None,
        *,
        storage: StorageStrategy | None = None,
        table_name: str = "triples",
    ):
        self.database = database if database is not None else Database()
        self.table_name = table_name
        self.storage = storage if storage is not None else SingleTableStorage(table_name)
        self._triples_list: list[Triple] | None = []
        self._triples_loader: Callable[[], list[Triple]] | None = None
        self._triples_lock = threading.Lock()
        # one materialisation at a time: a load a reader triggered must not
        # finish after, and so overwrite, a later load over more triples
        self._load_lock = threading.Lock()
        self._loaded = False
        #: how many of the buffered triples the storage tables hold
        self._materialized = 0
        self._counters = {"appends": 0, "full_loads": 0, "rows_appended": 0}
        #: called after every load, whoever triggered it (an engine drops its caches)
        self.on_load: Callable[[], None] | None = None

    @property
    def _triples(self) -> list[Triple]:
        """The buffered triples, hydrated lazily when backed by a snapshot.

        The loader is cleared only after it succeeds, so a failed first
        access raises again on retry instead of silently yielding an empty
        store, and the lock keeps concurrent first accesses from observing
        the half-hydrated state.
        """
        triples = self._triples_list
        if triples is not None:
            return triples
        with self._triples_lock:
            if self._triples_list is None:
                loader = self._triples_loader
                self._triples_list = loader() if loader is not None else []
                self._triples_loader = None
            return self._triples_list

    def adopt_snapshot(self, loader: Callable[[], list[Triple]], count: int) -> None:
        """Mark the store as loaded from a snapshot whose tables are in place.

        ``loader`` reproduces the ``count`` triples on first access
        (properties, a write); pattern matching and :attr:`num_triples`
        never need it because the storage strategy's partition tables
        already exist in the database and hold ``count`` triples.
        """
        self._triples_list = None
        self._triples_loader = loader
        self._materialized = count
        self._loaded = True

    # -- loading ----------------------------------------------------------------------

    def add(self, subject: str, property_name: str, obj: Any, probability: float = 1.0) -> None:
        """Buffer a single triple (call :meth:`load` to (re)materialise storage)."""
        self._triples.append(Triple(subject, property_name, obj, probability))
        self._loaded = False

    def add_all(self, triples: Iterable[Triple | tuple]) -> None:
        """Buffer many triples; tuples of length 3 or 4 are accepted."""
        for triple in triples:
            if isinstance(triple, Triple):
                self._triples.append(triple)
            else:
                values = tuple(triple)
                if len(values) == 3:
                    self._triples.append(Triple(values[0], values[1], values[2]))
                elif len(values) == 4:
                    self._triples.append(Triple(values[0], values[1], values[2], float(values[3])))
                else:
                    raise TripleStoreError(
                        f"triples must have 3 or 4 components, got {len(values)}"
                    )
        self._loaded = False

    def load(self) -> None:
        """Materialise the buffered triples into the storage strategy's tables.

        Appends the triples buffered since the last load, or loads every
        triple anew when the layout no longer holds its tables as it wrote
        them (a replaced table, a swapped layout, a snapshot's tables).
        """
        with self._load_lock:
            start = self._materialized
            if self.storage.held(self.database) != start:
                start = 0
            # a copy: a layout reads the triples in several passes, and a
            # concurrent add_all must not grow the list between them
            added = self._triples[start:]
            self.storage.load(self.database, added, append=start > 0)
            self._materialized = start + len(added)
            self._counters["appends" if start else "full_loads"] += 1
            self._counters["rows_appended"] += len(added) if start else 0
            # a triple buffered while the layout ran waits for the next load
            self._loaded = len(self._triples) == self._materialized
        if self.on_load is not None:
            self.on_load()

    def ensure_loaded(self) -> None:
        """Materialise the buffered triples unless the tables are current."""
        if not self._loaded:
            self.load()

    # -- statistics ---------------------------------------------------------------------

    @property
    def num_triples(self) -> int:
        """How many triples the store holds, without hydrating a snapshot's list."""
        triples = self._triples_list
        return self._materialized if triples is None else len(triples)

    def counters(self) -> dict[str, int]:
        """Loads that appended to the tables (and the rows they added) or rebuilt them."""
        return dict(self._counters)

    def properties(self) -> list[str]:
        """The distinct property names present in the store."""
        return sorted({triple.property for triple in self._triples})

    def subjects(self) -> list[str]:
        return sorted({triple.subject for triple in self._triples})

    # -- pattern matching ------------------------------------------------------------------

    def match(
        self,
        subject: str | None = None,
        property_name: str | None = None,
        obj: Any | None = None,
    ) -> ProbabilisticRelation:
        """Return all triples matching the given (possibly wildcarded) pattern."""
        self.ensure_loaded()
        return self.storage.match(self.database, subject, property_name, obj)

    # -- persistence ---------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Snapshot the triple source plus storage layout (see :mod:`repro.storage`).

        The partition tables themselves belong to :attr:`database`; snapshot
        that too (or use :meth:`repro.engine.Engine.save`, which does both).
        """
        from repro.storage.snapshot import save_triple_store

        self.ensure_loaded()
        return save_triple_store(self, path)

    @classmethod
    def open(cls, path: str | Path, database: Database, *, mmap: bool = True) -> "TripleStore":
        """Rebuild a store over a ``database`` opened from the same snapshot."""
        from repro.storage.snapshot import restore_triple_store

        return restore_triple_store(path, database, mmap=mmap)

    # -- relational integration ----------------------------------------------------------------

    def as_relation(self) -> Relation:
        """Return every triple as a single ``(subject, property, object, p)`` relation."""
        rows = [triple.as_row() for triple in self._triples]
        normalised = [(s, p, str(o), prob) for s, p, o, prob in rows]
        return Relation.from_rows(TRIPLE_SCHEMA, normalised)

    def docs_relation(
        self,
        *,
        filter_property: str,
        filter_value: str,
        text_property: str,
    ) -> ProbabilisticRelation:
        """The paper's ``docs(docID, data, p)`` sub-collection (Section 2.2/2.3).

        Subjects whose ``filter_property`` equals ``filter_value``, joined
        with the object of their ``text_property`` (probabilities multiplied,
        an independent join) and projected to ``(docID, data)``.
        """
        self.ensure_loaded()
        joined = PraJoin(
            self.storage.pattern_plan(filter_property, filter_value),
            self.storage.pattern_plan(text_property),
            [(1, 1)],
        )
        plan = PraProject(joined, [1, 6], Assumption.INDEPENDENT, ["docID", "data"])
        return PRAEvaluator(self.database).evaluate(plan)

    def register_docs_view(self, view_name: str, **docs: str) -> None:
        """Register :meth:`docs_relation` (same keywords) as table ``view_name``."""
        self.database.create_table(view_name, self.docs_relation(**docs).relation, replace=True)
