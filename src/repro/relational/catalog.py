"""The catalog: named base tables and views of a database.

Base tables come in two flavours: *materialised* relations registered with
:meth:`Catalog.create_table`, and *lazy* tables registered with
:meth:`Catalog.create_lazy_table`, whose loader runs on the first scan and
whose result is then cached as an ordinary table.  Lazy tables are how
database snapshots hydrate: opening a snapshot registers one loader per
table and touches no data until a query needs it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.errors import CatalogError
from repro.relational.algebra import LogicalPlan
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class Catalog:
    """Maps names to base tables (materialised relations) and views (plans)."""

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        self._lazy: dict[str, Callable[[], Relation]] = {}
        # schemas declared for lazy tables (snapshot manifests record them),
        # so static analysis can see column names/dtypes without hydrating
        self._lazy_schemas: dict[str, Schema] = {}
        self._views: dict[str, LogicalPlan] = {}
        # guards lazy hydration: concurrent first scans of the same table
        # (execute_many workers) must run the loader exactly once
        self._hydration_lock = threading.Lock()
        #: bumped by every definition change (create/replace/drop of a table
        #: or view, release); hydrating a lazy table changes no content and
        #: does not count.  Lets callers that keep results derived from the
        #: catalog's contents tell that they are stale.
        self.version = 0

    # -- tables -----------------------------------------------------------------

    def create_table(self, name: str, relation: Relation, *, replace: bool = False) -> None:
        """Register a base table under ``name``."""
        if not replace and self.exists(name):
            raise CatalogError(f"table or view {name!r} already exists")
        self._views.pop(name, None)
        self._lazy.pop(name, None)
        self._lazy_schemas.pop(name, None)
        self._tables[name] = relation
        self.version += 1

    def create_lazy_table(
        self,
        name: str,
        loader: Callable[[], Relation],
        *,
        replace: bool = False,
        schema: Schema | None = None,
    ) -> None:
        """Register a table whose contents are produced by ``loader`` on first scan.

        ``schema`` optionally declares the loader's output schema up front
        (snapshot manifests know it), letting :meth:`declared_schema` answer
        without running the loader.
        """
        if not replace and self.exists(name):
            raise CatalogError(f"table or view {name!r} already exists")
        self._views.pop(name, None)
        self._tables.pop(name, None)
        self._lazy[name] = loader
        if schema is not None:
            self._lazy_schemas[name] = schema
        else:
            self._lazy_schemas.pop(name, None)
        self.version += 1

    def drop_table(self, name: str) -> None:
        """Remove the base table called ``name``."""
        if name in self._lazy:
            del self._lazy[name]
            self._lazy_schemas.pop(name, None)
        elif name in self._tables:
            del self._tables[name]
        else:
            raise CatalogError(f"unknown table {name!r}")
        self.version += 1

    def has_table(self, name: str) -> bool:
        return name in self._tables or name in self._lazy

    def is_hydrated(self, name: str) -> bool:
        """True when ``name`` is a table whose contents are in memory already."""
        return name in self._tables

    def declared_schema(self, name: str) -> Schema | None:
        """The schema of table ``name`` without hydrating it, if knowable.

        Hydrated tables answer from the relation; lazy tables answer from the
        schema declared at registration (``None`` when the loader's output
        shape was not declared).  Views always answer ``None`` — resolving a
        view's schema requires building its plan.
        """
        relation = self._tables.get(name)
        if relation is not None:
            return relation.schema
        return self._lazy_schemas.get(name)

    def table(self, name: str) -> Relation:
        """Return the base table called ``name``, hydrating a lazy table if needed."""
        relation = self._tables.get(name)
        if relation is not None:
            return relation
        with self._hydration_lock:
            relation = self._tables.get(name)
            if relation is not None:
                return relation
            loader = self._lazy.get(name)
            if loader is not None:
                relation = loader()
                self._tables[name] = relation
                del self._lazy[name]
                self._lazy_schemas.pop(name, None)
                return relation
        raise CatalogError(
            f"unknown table {name!r}; known: {sorted(self.table_names_set())}"
        )

    # -- views -----------------------------------------------------------------

    def create_view(self, name: str, plan: LogicalPlan, *, replace: bool = False) -> None:
        """Register a view (a named logical plan) under ``name``."""
        if not replace and self.exists(name):
            raise CatalogError(f"table or view {name!r} already exists")
        self._tables.pop(name, None)
        self._views[name] = plan
        self.version += 1

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        del self._views[name]
        self.version += 1

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> LogicalPlan:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}; known: {sorted(self._views)}") from None

    # -- generic lookup -----------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._tables or name in self._lazy or name in self._views

    def resolve(self, name: str) -> Relation | LogicalPlan:
        """Return the relation (for tables) or plan (for views) bound to ``name``."""
        if self.has_table(name):
            return self.table(name)
        if name in self._views:
            return self._views[name]
        raise CatalogError(
            f"unknown table or view {name!r}; "
            f"tables: {sorted(self.table_names_set())}, views: {sorted(self._views)}"
        )

    def release(self) -> None:
        """Drop every table, lazy loader and view reference.

        Used by ``Engine.close()``: dropping the references lets memmap-backed
        snapshot buffers be unmapped once no query result still points at
        them.  The catalog stays usable (empty) afterwards.
        """
        self._tables.clear()
        self._lazy.clear()
        self._lazy_schemas.clear()
        self._views.clear()
        self.version += 1

    def unchanged(self) -> Callable[[], bool]:
        """A check that no definition changed since this call.

        Caches pass it as ``still_valid``: a write bumps the version before it
        invalidates them, so a value computed across the write is dropped
        instead of being stored after the invalidation (and served forever).
        """
        version = self.version
        return lambda: self.version == version

    def table_names_set(self) -> set[str]:
        """The names of every base table, hydrated or lazy."""
        return set(self._tables) | set(self._lazy)

    def table_names(self) -> list[str]:
        return sorted(self.table_names_set())

    def view_names(self) -> list[str]:
        return sorted(self._views)
